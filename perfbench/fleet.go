package main

// The serving fleet: two httpapi shard servers behind a router, each on
// its own loopback TCP listener in this process, plus the benchmark's
// spans around the calls into each layer.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"miras/internal/httpapi"
	"miras/internal/obs"
	"miras/internal/router"
)

// layer is a span boundary the benchmark records.
type layer uint8

const (
	layerRouter   layer = iota // router.Handler()
	layerUpstream              // the router's upstream RoundTripper, until the body is closed
	layerShard                 // a shard's Handler()
)

// spanRec is one recorded span: which request (the trace id the driver
// put in the traceparent header), which layer, and how long.
type spanRec struct {
	id    uint64
	layer layer
	kind  string // shard spans only: step, info, burst or other
	dur   time.Duration
}

// tracing holds the benchmark's own spans plus the ring that collects
// the spans httpapi emits through WithTracer. A nil *tracing disables
// everything.
type tracing struct {
	mu    sync.Mutex
	recs  []spanRec
	ring  *obs.SpanRing
	spans *obs.Tracer
}

// ringCapacity bounds the httpapi spans kept; a traced run that would
// overflow it fails rather than report a biased sample.
const ringCapacity = 1 << 18

func newTracing() *tracing {
	ring := obs.NewSpanRing(ringCapacity)
	return &tracing{ring: ring, spans: obs.NewTracer(obs.TracerConfig{Ring: ring})}
}

func (t *tracing) record(rec spanRec) {
	t.mu.Lock()
	t.recs = append(t.recs, rec)
	t.mu.Unlock()
}

// benchTrace is the high half of the trace id of every timed request; the
// low half is the request id. httpapi mints its own traces with a zero
// high half, so the two never collide.
const benchTrace = "000062656e636821"

// traceparent encodes a request id as a W3C trace id. The router forwards
// the header with the rest of the request's headers and httpapi joins its
// spans to that trace.
func traceparent(id uint64) string {
	return fmt.Sprintf("00-%s%016x-0000000000000001-01", benchTrace, id)
}

// requestID recovers the id from a trace id or a traceparent header value
// (0 when it is not one of the benchmark's).
func requestID(traceID string) uint64 {
	if len(traceID) == 55 {
		traceID = traceID[3:35]
	}
	if len(traceID) != 32 || traceID[:16] != benchTrace {
		return 0
	}
	id, err := strconv.ParseUint(traceID[16:], 16, 64)
	if err != nil {
		return 0
	}
	return id
}

// wrap times h for requests that carry a request id.
func (t *tracing) wrap(l layer, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := requestID(r.Header.Get("traceparent"))
		t0 := time.Now()
		h.ServeHTTP(w, r)
		if id != 0 {
			t.record(spanRec{id: id, layer: l, kind: requestKind(r), dur: time.Since(t0)})
		}
	})
}

func requestKind(r *http.Request) string {
	switch {
	case r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/step"):
		return "step"
	case r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/burst"):
		return "burst"
	case r.Method == http.MethodGet && strings.Count(r.URL.Path, "/") == 3:
		return "info"
	}
	return "other"
}

// upstream times the router's upstream round trip, from the request until
// the router closes the response body it copied to its client.
type upstream struct {
	t    *tracing
	next http.RoundTripper
}

func (u upstream) RoundTrip(req *http.Request) (*http.Response, error) {
	id := requestID(req.Header.Get("traceparent"))
	t0 := time.Now()
	resp, err := u.next.RoundTrip(req)
	if err != nil || id == 0 {
		return resp, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() {
		u.t.record(spanRec{id: id, layer: layerUpstream, dur: time.Since(t0)})
	}}
	return resp, nil
}

type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// fleet is the in-process serving fleet.
type fleet struct {
	shards    []*httpapi.Server
	shardURLs []string
	router    *router.Router
	url       string // the router's base URL
	servers   []*http.Server
	wg        sync.WaitGroup
	upstream  *http.Transport
	client    *http.Client // the load driver's client
	clientTr  *http.Transport
}

// startFleet starts two shards sharing spillDir and a router in front of
// them. conns bounds the idle connections kept per host on both hops.
func startFleet(spillDir string, conns int, tr *tracing) (*fleet, error) {
	var lns []net.Listener
	for i := 0; i < 3; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			return nil, err
		}
		lns = append(lns, ln)
	}
	f := &fleet{}
	for _, ln := range lns[:2] {
		f.shardURLs = append(f.shardURLs, "http://"+ln.Addr().String())
	}
	handlers := make([]http.Handler, 0, 3)
	for _, self := range f.shardURLs {
		opts := []httpapi.Option{
			httpapi.WithShardTopology(self, f.shardURLs),
			httpapi.WithSpillDir(spillDir),
			httpapi.WithMaxSessions(256),
		}
		if tr != nil {
			opts = append(opts, httpapi.WithTracer(tr.spans))
		}
		s := httpapi.NewServer(opts...)
		f.shards = append(f.shards, s)
		handlers = append(handlers, tr.wrap(layerShard, s.Handler()))
	}
	f.upstream = &http.Transport{MaxIdleConnsPerHost: conns, DisableCompression: true}
	var rt http.RoundTripper = f.upstream
	if tr != nil {
		rt = upstream{t: tr, next: f.upstream}
	}
	rtr, err := router.New(f.shardURLs, router.WithClient(&http.Client{Transport: rt, Timeout: 30 * time.Second}))
	if err != nil {
		for _, l := range lns {
			l.Close()
		}
		return nil, err
	}
	f.router = rtr
	f.url = "http://" + lns[2].Addr().String()
	handlers = append(handlers, tr.wrap(layerRouter, rtr.Handler()))
	for i, ln := range lns {
		srv := &http.Server{Handler: handlers[i], ReadHeaderTimeout: 10 * time.Second}
		f.servers = append(f.servers, srv)
		f.wg.Add(1)
		go func(ln net.Listener) {
			defer f.wg.Done()
			_ = srv.Serve(ln) // returns http.ErrServerClosed after Close
		}(ln)
	}
	f.clientTr = &http.Transport{MaxIdleConnsPerHost: conns, DisableCompression: true}
	f.client = &http.Client{Transport: f.clientTr, Timeout: 30 * time.Second}
	return f, nil
}

// close stops the three servers and waits for their serve loops to exit.
func (f *fleet) close() {
	for _, s := range f.servers {
		s.Close()
	}
	f.wg.Wait()
	f.clientTr.CloseIdleConnections()
	f.upstream.CloseIdleConnections()
}

// call sends one request and decodes a 2xx JSON reply into out (when
// non-nil). It is for set-up and checks, not for timed traffic.
func (f *fleet) call(method, url string, body, out any) error {
	raw, err := f.fetch(method, url, body)
	if err != nil || out == nil {
		return err
	}
	return json.Unmarshal(raw, out)
}

// fetch sends one request with body (when non-nil) as JSON and returns
// the reply of a 2xx status.
func (f *fleet) fetch(method, url string, body any) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(raw))
	}
	return raw, nil
}
