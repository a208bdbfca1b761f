#!/usr/bin/env bash
# Observability smoke test: build miras-server, start it on a local port,
# wait for /healthz, scrape /metrics, and fail unless the scrape contains
# actual miras/process metrics. Then check the training trace: a one-iteration
# miras-train -trace-out run must write only span records, with the Fig. 6
# statistics on train.iteration, and a log level that would write nothing
# must be rejected. `make obs-demo` runs this.
set -euo pipefail

cd "$(dirname "$0")/.."

# The demo doubles as an invariant gate: every runtime check in the stack
# runs live, and a violation panics the run.
export MIRAS_INVARIANTS=1

ADDR="${OBS_DEMO_ADDR:-127.0.0.1:18080}"
WORK="$(mktemp -d)"
BIN="$WORK/miras-server"

# fetch PATH — GET a URL and print the body. Prefers curl; falls back to
# bash's /dev/tcp so the gate needs nothing beyond the base image.
fetch() {
    local path="$1"
    if command -v curl >/dev/null 2>&1; then
        curl -sf "http://$ADDR$path"
    else
        local host="${ADDR%:*}" port="${ADDR##*:}"
        exec 3<>"/dev/tcp/$host/$port"
        printf 'GET %s HTTP/1.0\r\nHost: %s\r\n\r\n' "$path" "$host" >&3
        # Strip the status line and headers; keep the body.
        sed '1,/^\r\{0,1\}$/d' <&3
        exec 3<&- 3>&-
    fi
}

# post PATH BODY — POST a JSON body and print the response body, same
# curl-or-/dev/tcp discipline as fetch.
post() {
    local path="$1" body="$2"
    if command -v curl >/dev/null 2>&1; then
        curl -sf -X POST -d "$body" "http://$ADDR$path"
    else
        local host="${ADDR%:*}" port="${ADDR##*:}"
        exec 3<>"/dev/tcp/$host/$port"
        printf 'POST %s HTTP/1.0\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s' \
            "$path" "$host" "${#body}" "$body" >&3
        sed '1,/^\r\{0,1\}$/d' <&3
        exec 3<&- 3>&-
    fi
}

echo "==> building miras-server"
go build -o "$BIN" ./cmd/miras-server

echo "==> starting miras-server on $ADDR"
"$BIN" -addr "$ADDR" -sample-interval 200ms &
SERVER_PID=$!
cleanup() {
    kill "$SERVER_PID" 2>/dev/null || true
    wait "$SERVER_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

echo "==> waiting for /healthz"
for _ in $(seq 1 50); do
    if fetch /healthz 2>/dev/null | grep -q ok; then
        break
    fi
    sleep 0.1
done
fetch /healthz | grep -q ok || { echo "server never became healthy" >&2; exit 1; }

echo "==> scraping /metrics"
metrics=$(fetch /metrics)
if [ -z "$metrics" ]; then
    echo "/metrics returned an empty body" >&2
    exit 1
fi
echo "$metrics" | grep -q '^process_goroutines' || {
    echo "/metrics missing process metrics:" >&2
    echo "$metrics" >&2
    exit 1
}
echo "$metrics" | grep -q '^# TYPE' || {
    echo "/metrics missing Prometheus type metadata" >&2
    exit 1
}

echo "==> driving one traced session"
created=$(post /v1/sessions '{"ensemble":"toy","budget":6,"window_sec":10}')
echo "$created" | grep -q '"id":"s1"' || {
    echo "session create failed: $created" >&2
    exit 1
}
post /v1/sessions/s1/step '{"allocation":[4,2]}' | grep -q '"reward"' || {
    echo "session step failed" >&2
    exit 1
}

echo "==> scraping /v1/debug/traces"
traces=$(fetch /v1/debug/traces)
echo "$traces" | grep -q '"name":"http.step"' || {
    echo "/v1/debug/traces missing the request root span: $traces" >&2
    exit 1
}
echo "$traces" | grep -q '"name":"session.step"' || {
    echo "/v1/debug/traces missing the session child span: $traces" >&2
    exit 1
}

echo "==> scraping /v1/debug/timeseries"
# The sampler runs every 200ms; give it a moment to take a sample that
# includes the session's series.
sleep 0.5
series=$(fetch /v1/debug/timeseries)
echo "$series" | grep -q '"samples":' || {
    echo "/v1/debug/timeseries is not a snapshot dump: $series" >&2
    exit 1
}
echo "$series" | grep -q 'miras_http_requests_total' || {
    echo "/v1/debug/timeseries missing request counters: $series" >&2
    exit 1
}

echo "==> scraping /debug/dash"
dash=$(fetch /debug/dash)
echo "$dash" | grep -q '<svg' || {
    echo "/debug/dash has no sparklines" >&2
    exit 1
}

echo "==> tracing one training iteration"
go build -o "$WORK/miras-train" ./cmd/miras-train
TRACE="$WORK/trace.jsonl"
"$WORK/miras-train" -ensemble msd -scale quick -iterations 1 -out "$WORK/out" \
    -trace-out "$TRACE" -log-level debug >/dev/null
[ -s "$TRACE" ] || { echo "training trace is empty" >&2; exit 1; }
if grep -qv '"msg":"span"' "$TRACE"; then
    echo "training trace has non-span records:" >&2
    grep -m 3 -v '"msg":"span"' "$TRACE" >&2
    exit 1
fi
grep '"name":"train.iteration"' "$TRACE" | grep -q '"eval_return":' || {
    echo "train.iteration span lacks eval_return" >&2
    exit 1
}
if "$WORK/miras-train" -ensemble msd -scale quick -iterations 1 -out "$WORK/out" \
    -trace-out "$WORK/warn.jsonl" -log-level warn >/dev/null 2>&1; then
    echo "-log-level warn was accepted; it would write an empty trace" >&2
    exit 1
fi

echo "==> sample:"
echo "$metrics" | head -8
echo "OK"
