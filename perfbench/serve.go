package main

// The two serving workloads and the load driver: a closed loop for
// capacity, an open loop (Poisson arrivals at a fixed rate) for latency.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"miras/internal/faults"
	"miras/internal/httpapi"
	"miras/internal/rl"
	"miras/internal/workload"
)

const (
	// lateLimit and backlogLimit decide whether an open-loop run is valid:
	// when the generator ran later than lateLimit at its 99th percentile,
	// or left more than backlogLimit due requests unstarted at the end,
	// the offered rate was not offered and the latencies are not reported
	// as such (the run counts a failed check).
	lateLimit    = 50 * time.Millisecond
	backlogLimit = 200
	// costWindows is the length of a policy-cost episode (the quick
	// setups' evaluation windows); costSessions episodes are summed so the
	// figure does not hinge on one session's arrivals.
	costWindows  = 12
	costSessions = 128
	// sessionAge is how many ops each session receives during set-up, so
	// that snapshots and restores start from sessions with some history.
	sessionAge = 100
	// restartCycles is how many times a traced run measures a restart.
	restartCycles = 9
	// compactSeconds is the measured length of a compact serving run.
	compactSeconds = 4
)

type session struct {
	id                  string
	stateDim, actionDim int
}

// op is one request of a workload's traffic.
type op struct {
	kind string // step, info or burst
	sess int
	path string
	body []byte // nil for GET
}

// serveSpec describes one serving workload.
type serveSpec struct {
	sessions int
	create   func(seed int64, i int) httpapi.CreateRequest
	// policy, when non-nil, builds the policy attached to every session
	// (and to the policy-cost session).
	policy func(s session) (*rl.PolicySnapshot, error)
	// mix draws the k-th op of a sequence against session s.
	mix func(rng *rand.Rand, k, s int, sess session) op
	// popularity draws a session's popularity rank for the load phases (0
	// is the most popular); a seeded permutation of the sessions, fixed
	// for the run, maps ranks to sessions.
	popularity func(rng *rand.Rand) func() int
	// closedRate sizes the closed loop's fixed work (requests per second
	// the seed host completes); openRate is the open loop's offered rate,
	// both in requests per second.
	closedRate, openRate float64
	// spillEvery, when positive, runs Server.SpillAll on every shard at
	// this interval during the load phases (miras-server's
	// -spill-sync-interval).
	spillEvery time.Duration
	// costBurst is injected into the policy-cost session before its
	// episode; costStep draws that episode's step requests.
	costBurst []int
	costStep  func(rng *rand.Rand, sess session) []byte
}

func runZipf(cfg runConfig, r *report) error {
	const population = 64
	return runServe(serveSpec{
		sessions: population,
		create: func(seed int64, i int) httpapi.CreateRequest {
			return httpapi.CreateRequest{Ensemble: "toy", Budget: 6, WindowSec: 10, Seed: seed*1000 + int64(i)}
		},
		mix: func(rng *rand.Rand, _, s int, sess session) op {
			if rng.Float64() < 0.92 {
				return stepOp(s, sess, randomAllocation(rng, 6, sess.actionDim))
			}
			return op{kind: "info", sess: s, path: "/v1/sessions/" + sess.id}
		},
		popularity: func(rng *rand.Rand) func() int {
			z := rand.NewZipf(rng, 1.2, 1, population-1)
			return func() int { return int(z.Uint64()) }
		},
		closedRate: 7000,
		openRate:   1000,
		costBurst:  []int{30},
		costStep: func(rng *rand.Rand, sess session) []byte {
			return stepOp(0, sess, randomAllocation(rng, 6, sess.actionDim)).body
		},
	}, cfg, r)
}

func runLigo(cfg runConfig, r *report) error {
	bursts, err := workload.PaperBursts("ligo")
	if err != nil {
		return err
	}
	plan := &faults.Plan{Specs: []faults.Spec{
		// Consumer crash/restart renewal on every service for the whole run.
		{Kind: faults.Crash, Service: faults.AllServices, MTTFSec: 900, MTTRSec: 15},
		// A 1.5x service-time slowdown on every service, likewise.
		{Kind: faults.Slowdown, Service: faults.AllServices, DurationSec: 1e9, Factor: 1.5},
	}}
	return runServe(serveSpec{
		sessions: 16,
		create: func(seed int64, i int) httpapi.CreateRequest {
			return httpapi.CreateRequest{Ensemble: "ligo", Budget: 30, WindowSec: 30,
				Seed: seed*1000 + int64(i), FailureAware: true, Faults: plan}
		},
		// One deployed model for every seed: the seed varies the traffic,
		// not the policy being served.
		policy: func(s session) (*rl.PolicySnapshot, error) {
			d, err := rl.NewDDPG(rl.Config{StateDim: s.stateDim, ActionDim: s.actionDim,
				Hidden: []int{24, 24}, Seed: 1})
			if err != nil {
				return nil, err
			}
			return d.Snapshot(), nil
		},
		mix: func(rng *rand.Rand, k, s int, sess session) op {
			// Every 40th op of a sequence is a Fig. 8 burst; the rest are
			// auto-steps.
			if k%40 == 39 {
				b, _ := json.Marshal(httpapi.BurstRequest{Counts: bursts[rng.Intn(len(bursts))]}) // ints cannot fail to encode
				return op{kind: "burst", sess: s, path: "/v1/sessions/" + sess.id + "/burst", body: b}
			}
			return stepOp(s, sess, nil)
		},
		popularity: func(rng *rand.Rand) func() int {
			return func() int { return rng.Intn(16) }
		},
		closedRate: 2500,
		openRate:   500,
		spillEvery: 500 * time.Millisecond,
		costBurst:  bursts[0],
		costStep:   func(*rand.Rand, session) []byte { return []byte("{}") },
	}, cfg, r)
}

func stepOp(s int, sess session, alloc []int) op {
	body := []byte("{}")
	if alloc != nil {
		body, _ = json.Marshal(httpapi.StepRequest{Allocation: alloc}) // ints cannot fail to encode
	}
	return op{kind: "step", sess: s, path: "/v1/sessions/" + sess.id + "/step", body: body}
}

// randomAllocation spreads budget over dim services uniformly at random.
func randomAllocation(rng *rand.Rand, budget, dim int) []int {
	a := make([]int, dim)
	for i := 0; i < budget; i++ {
		a[rng.Intn(dim)]++
	}
	return a
}

// serveRun is one fleet with its sessions.
type serveRun struct {
	spec serveSpec
	f    *fleet
	tr   *tracing
	sess []session
	// perm maps popularity ranks to sessions; it decides which sessions,
	// and so which shards, are hot.
	perm []int
	// rtts holds, on traced runs, each timed request's client round trip.
	mu   sync.Mutex
	rtts map[uint64]time.Duration
	ids  atomic.Uint64
}

// setUp starts a fleet, creates and ages the sessions and attaches
// policies.
func setUp(spec serveSpec, cfg runConfig, spillDir string, tr *tracing) (*serveRun, error) {
	workers := runtime.NumCPU()
	f, err := startFleet(spillDir, workers, tr)
	if err != nil {
		return nil, err
	}
	sr := &serveRun{spec: spec, f: f, tr: tr, rtts: map[uint64]time.Duration{},
		perm: rand.New(rand.NewSource(cfg.seed*17 + 3)).Perm(spec.sessions)}
	ok := false
	defer func() {
		if !ok {
			f.close()
		}
	}()
	var pol *rl.PolicySnapshot
	for i := 0; i < spec.sessions; i++ {
		s, err := sr.createSession(cfg.seed, i, &pol)
		if err != nil {
			return nil, err
		}
		sr.sess = append(sr.sess, s)
	}
	// Age every session with its own deterministic op sequence; sessions
	// are split across the workers, each session's ops run in order.
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for s := w; s < len(sr.sess); s += workers {
				rng := rand.New(rand.NewSource(cfg.seed*7919 + int64(s)))
				for k := 0; k < sessionAge; k++ {
					o := spec.mix(rng, k, s, sr.sess[s])
					if err := sr.untimed(&o); err != nil {
						errs[w] = err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("aging: %w", err)
		}
	}
	ok = true
	return sr, nil
}

// createSession creates session i and attaches the workload's policy,
// building it on first use.
func (sr *serveRun) createSession(seed int64, i int, pol **rl.PolicySnapshot) (session, error) {
	var info httpapi.SessionInfo
	if err := sr.f.call(http.MethodPost, sr.f.url+"/v1/sessions", sr.spec.create(seed, i), &info); err != nil {
		return session{}, fmt.Errorf("create session: %w", err)
	}
	s := session{id: info.ID, stateDim: info.StateDim, actionDim: info.ActionDim}
	if sr.spec.policy == nil {
		return s, nil
	}
	if *pol == nil {
		p, err := sr.spec.policy(s)
		if err != nil {
			return s, err
		}
		*pol = p
	}
	if err := sr.f.call(http.MethodPost, sr.f.url+"/v1/sessions/"+s.id+"/policy", *pol, nil); err != nil {
		return s, fmt.Errorf("attach policy: %w", err)
	}
	return s, nil
}

// untimed sends an op outside the measured phases and checks its reply.
func (sr *serveRun) untimed(o *op) error {
	body, status, err := sr.send(o, false)
	if err != nil {
		return err
	}
	return sr.validate(o, status, body)
}

// send issues one request and reads the whole reply. On a traced fleet,
// timed requests carry a request id and record their round trip.
func (sr *serveRun) send(o *op, timed bool) ([]byte, int, error) {
	method, rd := http.MethodGet, io.Reader(nil)
	if o.body != nil {
		method, rd = http.MethodPost, bytes.NewReader(o.body)
	}
	req, err := http.NewRequest(method, sr.f.url+o.path, rd)
	if err != nil {
		return nil, 0, err
	}
	var id uint64
	if timed && sr.tr != nil {
		id = sr.ids.Add(1)
		req.Header.Set("traceparent", traceparent(id))
	}
	t0 := time.Now()
	resp, err := sr.f.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rtt := time.Since(t0)
	if err != nil {
		return nil, 0, err
	}
	if id != 0 {
		sr.mu.Lock()
		sr.rtts[id] = rtt
		sr.mu.Unlock()
	}
	return body, resp.StatusCode, nil
}

// validate checks a reply's status and shape: state vectors of the
// session's width and, for steps, a finite reward.
func (sr *serveRun) validate(o *op, status int, body []byte) error {
	if status/100 != 2 {
		return fmt.Errorf("%s %s: status %d: %s", o.kind, o.path, status, bytes.TrimSpace(body))
	}
	s := sr.sess[o.sess]
	var v struct {
		ID         string    `json:"id"`
		State      []float64 `json:"state"`
		Reward     *float64  `json:"reward"`
		Allocation []int     `json:"allocation"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		return fmt.Errorf("%s %s: decode reply: %w", o.kind, o.path, err)
	}
	bad := len(v.State) != s.stateDim
	for _, x := range v.State {
		bad = bad || !finite(x)
	}
	switch o.kind {
	case "step":
		bad = bad || v.Reward == nil || !finite(*v.Reward)
		if string(o.body) == "{}" { // auto-step: the policy's allocation comes back
			bad = bad || len(v.Allocation) != s.actionDim
		}
	case "info":
		bad = bad || v.ID != s.id
	}
	if bad {
		return fmt.Errorf("%s %s: malformed reply %.200s", o.kind, o.path, body)
	}
	return nil
}

// tally is one worker's count of timed requests.
type tally struct {
	done, failed int64
	problem      string
}

func (t *tally) add(err error) {
	t.done++
	if err != nil {
		t.failed++
		if t.problem == "" {
			t.problem = err.Error()
		}
	}
}

func merge(r *report, ts []tally) {
	for _, t := range ts {
		r.attempted += t.done
		r.failed += t.failed
		if t.problem != "" && len(r.problems) < 20 {
			r.problems = append(r.problems, t.problem)
		}
	}
}

// opRing draws n ops of the load mix from one seeded stream.
func (sr *serveRun) opRing(seed int64, n int) []op {
	rng := rand.New(rand.NewSource(seed))
	rank := sr.spec.popularity(rng)
	ops := make([]op, n)
	for k := range ops {
		s := sr.perm[rank()]
		ops[k] = sr.spec.mix(rng, k, s, sr.sess[s])
	}
	return ops
}

// closedLoop runs one worker per connection, each sending n requests in
// turn: the next when the previous reply has been read and checked. It
// returns the successful requests per wall-clock second and per
// CPU-second of the process. The work is fixed, not the time, so every
// run appends the same operations to the sessions.
func (sr *serveRun) closedLoop(seed int64, n int, r *report) (wall, cpu float64) {
	workers := runtime.NumCPU()
	rings := make([][]op, workers)
	for w := range rings {
		rings[w] = sr.opRing(seed*31+int64(w), 4096)
	}
	ts := make([]tally, workers)
	var wg sync.WaitGroup
	start, c0 := time.Now(), cpuTime()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(ops []op, t *tally) {
			defer wg.Done()
			for k := 0; k < n; k++ {
				o := &ops[k%len(ops)]
				body, status, err := sr.send(o, true)
				if err == nil {
					err = sr.validate(o, status, body)
				}
				t.add(err)
			}
		}(rings[w], &ts[w])
	}
	wg.Wait()
	elapsed, busy := time.Since(start), cpuTime()-c0
	merge(r, ts)
	ok := 0.0
	for _, t := range ts {
		ok += float64(t.done - t.failed)
	}
	return ok / elapsed.Seconds(), ok / busy.Seconds()
}

// openResult is one open-loop phase.
type openResult struct {
	latMS   []float64 // each request from when it was due until its reply was read
	lateMS  []float64 // how late the generator handed each request out
	backlog int       // requests due but not started when the schedule ended
}

// openLoop offers Poisson arrivals at rate for d to a pool of one worker
// per connection and times each request from when it was due.
func (sr *serveRun) openLoop(seed int64, rate float64, d time.Duration, r *report) openResult {
	type item struct {
		o   *op
		due time.Time
	}
	rng := rand.New(rand.NewSource(seed*131 + 7))
	ops := sr.opRing(seed*37, 8192)
	var offsets []time.Duration
	for t := 0.0; ; {
		t += rng.ExpFloat64() / rate
		if t >= d.Seconds() {
			break
		}
		offsets = append(offsets, time.Duration(t*float64(time.Second)))
	}
	// Buffered for the whole schedule so the generator never blocks on
	// busy workers: queueing shows up as latency, not as generator lag.
	ch := make(chan item, len(offsets))
	workers := runtime.NumCPU()
	ts := make([]tally, workers)
	lats := make([][]float64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for it := range ch {
				body, status, err := sr.send(it.o, true)
				lats[w] = append(lats[w], ms(time.Since(it.due)))
				if err == nil {
					err = sr.validate(it.o, status, body)
				}
				ts[w].add(err)
			}
		}(w)
	}
	res := openResult{lateMS: make([]float64, 0, len(offsets))}
	start := time.Now()
	for i, off := range offsets {
		due := start.Add(off)
		if wait := time.Until(due); wait > 0 {
			sleep(wait)
		}
		res.lateMS = append(res.lateMS, ms(time.Since(due)))
		ch <- item{o: &ops[i%len(ops)], due: due}
	}
	res.backlog = len(ch)
	close(ch)
	wg.Wait()
	merge(r, ts)
	for _, l := range lats {
		res.latMS = append(res.latMS, l...)
	}
	late := quantile(res.lateMS, 0.99)
	r.check(late <= ms(lateLimit) && res.backlog <= backlogLimit,
		"open loop invalid: generator late p99 %.2f ms, backlog %d at end (limits %v, %d)",
		late, res.backlog, lateLimit, backlogLimit)
	return res
}

// sleep blocks in the nanosleep system call rather than on a runtime
// timer: an idle Go scheduler rounds timer waits up to whole milliseconds,
// which at these rates would be most of the measured latency.
func sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // an early wake (EINTR) only sends sooner
}

// spillLoop calls SpillAll on every shard each interval until stop is
// closed, and returns the duration of every call.
func (sr *serveRun) spillLoop(every time.Duration, stop <-chan struct{}, r *report) func() []time.Duration {
	var mu sync.Mutex
	var ticks []time.Duration
	var errs []error
	var wg sync.WaitGroup
	for _, s := range sr.f.shards {
		wg.Add(1)
		go func(s *httpapi.Server) {
			defer wg.Done()
			t := time.NewTicker(every)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
				}
				t0 := time.Now()
				_, err := s.SpillAll()
				d := time.Since(t0)
				mu.Lock()
				ticks = append(ticks, d)
				errs = append(errs, err)
				mu.Unlock()
			}
		}(s)
	}
	return func() []time.Duration {
		wg.Wait()
		for _, err := range errs {
			r.check(err == nil, "spill-all: %v", err)
		}
		return ticks
	}
}

// infos reads every session's info through the router, byte for byte.
func (sr *serveRun) infos() (map[string][]byte, error) {
	out := make(map[string][]byte, len(sr.sess))
	for _, s := range sr.sess {
		raw, err := sr.f.fetch(http.MethodGet, sr.f.url+"/v1/sessions/"+s.id, nil)
		if err != nil {
			return nil, err
		}
		out[s.id] = raw
	}
	return out, nil
}

// drainRehydrate drains both shards to the spill directory and rehydrates
// every session, checking that each session's info is byte-identical
// before and after. It returns the rehydrate wall time and the CPU time of
// drain plus rehydrate. A collection runs first, so every cycle starts
// from the same heap.
func (sr *serveRun) drainRehydrate(r *report) (rehydrate, cpu time.Duration, err error) {
	before, err := sr.infos()
	if err != nil {
		return 0, 0, err
	}
	runtime.GC()
	c0 := cpuTime()
	spilled := 0
	for _, u := range sr.f.shardURLs {
		var resp httpapi.DrainResponse
		if err := sr.f.call(http.MethodPost, u+"/v1/admin/drain", nil, &resp); err != nil {
			return 0, 0, err
		}
		spilled += len(resp.Spilled)
	}
	t1 := time.Now()
	back := 0
	for _, u := range sr.f.shardURLs {
		var resp httpapi.RehydrateResponse
		if err := sr.f.call(http.MethodPost, u+"/v1/admin/rehydrate", nil, &resp); err != nil {
			return 0, 0, err
		}
		back += len(resp.Rehydrated)
		for id, why := range resp.Failed {
			r.check(false, "rehydrate %s: %s", id, why)
		}
	}
	rehydrate, cpu = time.Since(t1), cpuTime()-c0
	r.check(spilled == len(sr.sess) && back == len(sr.sess),
		"drained %d and rehydrated %d of %d sessions", spilled, back, len(sr.sess))
	after, err := sr.infos()
	if err != nil {
		return 0, 0, err
	}
	for id, b := range before {
		r.check(bytes.Equal(b, after[id]), "session %s: info after rehydrate differs from before drain", id)
	}
	return rehydrate, cpu, nil
}

// policyCost runs the workload's control on costSessions fresh sessions:
// each gets the cost burst, then costWindows steps. It returns the negated
// aggregated reward (summed WIP, lower is better) over all of them; the
// sessions are deleted afterwards.
func (sr *serveRun) policyCost(seed int64) (float64, error) {
	var pol *rl.PolicySnapshot
	cost := 0.0
	for j := 0; j < costSessions; j++ {
		s, err := sr.createSession(seed, 1000+j, &pol)
		if err != nil {
			return 0, err
		}
		base := sr.f.url + "/v1/sessions/" + s.id
		if err := sr.f.call(http.MethodPost, base+"/burst", httpapi.BurstRequest{Counts: sr.spec.costBurst}, nil); err != nil {
			return 0, err
		}
		rng := rand.New(rand.NewSource(seed*100 + int64(j)))
		for k := 0; k < costWindows; k++ {
			var resp httpapi.StepResponse
			if err := sr.f.call(http.MethodPost, base+"/step", json.RawMessage(sr.spec.costStep(rng, s)), &resp); err != nil {
				return 0, err
			}
			cost -= resp.Reward
		}
		if err := sr.f.call(http.MethodDelete, base, nil, nil); err != nil {
			return 0, err
		}
	}
	return cost, nil
}

// load is what one stretch of measured rounds produced.
type load struct {
	walls, caps     []float64 // closed-loop rates per round: per wall-clock second, per CPU-second
	latMS, lateMS   []float64 // open-loop latencies and generator lateness, all rounds
	backlog, rounds int
}

// runLoad runs rounds of one closed-loop share and, when open is set,
// three open-loop shares at the workload's offered rate.
func (sr *serveRun) runLoad(seed int64, rounds int, share time.Duration, open bool, r *report) load {
	l := load{rounds: rounds}
	for i := 0; i < rounds; i++ {
		roundSeed := seed + int64(i)*1009
		// Sized so a round's closed loop takes about share on the seed host.
		perWorker := int(sr.spec.closedRate * share.Seconds() / float64(runtime.NumCPU()))
		w, c := sr.closedLoop(roundSeed, perWorker, r)
		l.walls, l.caps = append(l.walls, w), append(l.caps, c)
		if open {
			o := sr.openLoop(roundSeed, sr.spec.openRate, 3*share, r)
			l.latMS = append(l.latMS, o.latMS...)
			l.lateMS = append(l.lateMS, o.lateMS...)
			l.backlog = max(l.backlog, o.backlog)
		}
	}
	return l
}

func runServe(spec serveSpec, cfg runConfig, r *report) error {
	seconds := cfg.seconds
	if cfg.compact {
		seconds = compactSeconds
	}
	spillDir := filepath.Join(cfg.workdir, "spill")
	// A traced run splits its time between an untraced reference fleet
	// and a traced one, each getting one round of a closed-loop share and
	// three open-loop shares.
	traceShare := time.Duration(seconds / 8 * float64(time.Second))

	plainCapacity := 0.0
	if cfg.trace {
		sr, err := setUp(spec, cfg, spillDir+"-plain", nil)
		if err != nil {
			return err
		}
		a0, m0 := r.attempted, mallocs()
		ref := sr.runLoad(cfg.seed, 1, traceShare, true, r)
		r.set("serve.allocs_per_req", float64(mallocs()-m0)/float64(r.attempted-a0), int(r.attempted-a0))
		sr.f.close()
		plainCapacity = median(ref.caps)
		r.set("capacity_per_cpu_s", plainCapacity, ref.rounds)
		r.set("capacity_wall_per_s", median(ref.walls), ref.rounds)
		r.set("serve.p50_ms", median(ref.latMS), len(ref.latMS))
		r.set("serve.p99_ms", quantile(ref.latMS, 0.99), len(ref.latMS))
		r.set("loadgen.late_p99_ms", quantile(ref.lateMS, 0.99), len(ref.lateMS))
		r.set("loadgen.backlog_end", float64(ref.backlog), ref.rounds)
	}

	// Set-up, three times outside traced runs; the last fleet is kept.
	setups := 3
	if cfg.trace {
		setups = 1
	}
	var tr *tracing
	if cfg.trace {
		tr = newTracing()
	}
	var setupS []float64
	var sr *serveRun
	for i := 0; i < setups; i++ {
		if sr != nil {
			sr.f.close()
		}
		c0 := cpuTime()
		var err error
		if sr, err = setUp(spec, cfg, fmt.Sprintf("%s-%d", spillDir, i), tr); err != nil {
			return err
		}
		setupS = append(setupS, (cpuTime() - c0).Seconds())
	}
	defer sr.f.close()
	r.set("setup_s", median(setupS), len(setupS))

	if cfg.trace {
		// Restart cost at the sessions' set-up age: the median of
		// identical cycles.
		var cpuS, perSession []float64
		for i := 0; i < restartCycles; i++ {
			h, c, err := sr.drainRehydrate(r)
			if err != nil {
				return err
			}
			cpuS = append(cpuS, c.Seconds())
			perSession = append(perSession, ms(h)/float64(len(sr.sess)))
		}
		r.set("rehydrate.cpu_s", median(cpuS), len(cpuS))
		r.set("rehydrate.ms_per_session", median(perSession), len(perSession))
	}

	cost, err := sr.policyCost(cfg.seed)
	if err != nil {
		return fmt.Errorf("policy cost: %w", err)
	}
	r.check(finite(cost) && cost > 0, "policy cost %g is not a positive finite number", cost)
	r.set("policy_cost", cost, costSessions*costWindows)

	// The measured load, with the spill-sync loop running throughout.
	// Untraced runs measure capacity in one-second closed-loop rounds;
	// the median over rounds keeps a transient stall of the host to one
	// round.
	fwd0 := sr.routerCounts("miras_router_requests_total")
	retry0 := sr.routerCounts("miras_router_retries_total")
	stop := make(chan struct{})
	var spillTicks func() []time.Duration
	if spec.spillEvery > 0 {
		spillTicks = sr.spillLoop(spec.spillEvery, stop, r)
	}
	var l load
	if cfg.trace {
		l = sr.runLoad(cfg.seed, 1, traceShare, true, r)
	} else {
		rounds := max(1, int(seconds))
		l = sr.runLoad(cfg.seed, rounds, time.Duration(seconds/float64(rounds)*float64(time.Second)), false, r)
	}
	close(stop)
	var ticks []time.Duration
	if spillTicks != nil {
		ticks = spillTicks()
	}
	r.set("live_heap_mb", liveHeapMB(), 1)

	fwd := sr.routerCounts("miras_router_requests_total")
	retries := sr.routerCounts("miras_router_retries_total")
	total, top, retried := 0.0, 0.0, 0.0
	for i := range fwd {
		n := float64(fwd[i] - fwd0[i])
		total += n
		top = math.Max(top, n)
		retried += float64(retries[i] - retry0[i])
	}
	r.set("router.shard_max_share", top/total, int(total))
	r.set("router.retries", retried, 1)
	if len(ticks) > 0 {
		var tickMS []float64
		for _, d := range ticks {
			tickMS = append(tickMS, ms(d))
		}
		r.set("spill.tick_p50_ms", median(tickMS), len(tickMS))
		r.set("spill.ticks", float64(len(ticks)), 1)
		b, n, err := spillBytes(fmt.Sprintf("%s-%d", spillDir, setups-1))
		if err != nil {
			return err
		}
		r.set("spill.bytes_per_session", b/float64(n), n)
	}
	if cfg.trace {
		// Before the drain: draining a session drops its spans from the
		// tracer's ring.
		r.set("trace_overhead_pct", (plainCapacity/median(l.caps)-1)*100, 1)
		if err := tr.layers(sr, r); err != nil {
			return err
		}
	}

	// The run ends with a drain and rehydrate of every session, checked.
	if _, _, err := sr.drainRehydrate(r); err != nil {
		return err
	}
	r.set("serve.error_rate", float64(r.failed)/float64(r.attempted), int(r.attempted))
	return nil
}

// routerCounts reads one of the router's per-shard counters.
func (sr *serveRun) routerCounts(name string) []uint64 {
	out := make([]uint64, len(sr.f.shardURLs))
	for i, u := range sr.f.shardURLs {
		out[i] = sr.f.router.Registry().Counter(name, "", "shard", u).Value()
	}
	return out
}

// spillBytes returns the total size of every session's newest spill
// checkpoint under dir (the largest file: a snapshot only grows) and the
// number of sessions.
func spillBytes(dir string) (float64, int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0, err
	}
	total, n := 0.0, 0
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		files, err := os.ReadDir(filepath.Join(dir, e.Name()))
		if err != nil {
			return 0, 0, err
		}
		biggest := int64(0)
		for _, f := range files {
			if info, err := f.Info(); err == nil && info.Size() > biggest {
				biggest = info.Size()
			}
		}
		if biggest > 0 {
			total += float64(biggest)
			n++
		}
	}
	if n == 0 {
		return 0, 0, fmt.Errorf("no spill files under %s", dir)
	}
	return total, n, nil
}

// layers derives the serving layers' metrics from the traced run's spans.
func (t *tracing) layers(sr *serveRun, r *report) error {
	if t.ring.Len() >= ringCapacity {
		return fmt.Errorf("span ring overflowed; raise its capacity")
	}
	type joined struct {
		router, upstream, shard, step, decide time.Duration
		kind                                  string
	}
	by := map[uint64]*joined{}
	get := func(id uint64) *joined {
		j := by[id]
		if j == nil {
			j = &joined{}
			by[id] = j
		}
		return j
	}
	t.mu.Lock()
	for _, rec := range t.recs {
		j := get(rec.id)
		switch rec.layer {
		case layerRouter:
			j.router = rec.dur
		case layerUpstream:
			j.upstream = rec.dur
		case layerShard:
			j.shard, j.kind = rec.dur, rec.kind
		}
	}
	t.mu.Unlock()
	var stepMS, decideUS []float64
	for _, rec := range t.ring.Records() {
		id := requestID(rec.Trace)
		if by[id] == nil {
			continue
		}
		d := time.Duration(rec.WallDur * float64(time.Second))
		switch rec.Name {
		case "session.step":
			by[id].step = d
			stepMS = append(stepMS, ms(d))
		case "session.decide":
			by[id].decide = d
			decideUS = append(decideUS, float64(d)/float64(time.Microsecond))
		}
	}
	var clientHop, routerSelf, transportHop, other []float64
	handler := map[string][]float64{}
	sr.mu.Lock()
	for id, j := range by {
		rtt, ok := sr.rtts[id]
		if !ok || j.router == 0 || j.upstream == 0 || j.shard == 0 {
			continue
		}
		clientHop = append(clientHop, ms(rtt-j.router))
		routerSelf = append(routerSelf, ms(j.router-j.upstream))
		transportHop = append(transportHop, ms(j.upstream-j.shard))
		handler[j.kind] = append(handler[j.kind], ms(j.shard))
		other = append(other, ms(j.shard-j.step-j.decide))
	}
	sr.mu.Unlock()
	r.set("client.hop_p50_ms", median(clientHop), len(clientHop))
	r.set("router.self_p50_ms", median(routerSelf), len(routerSelf))
	r.set("router.self_p99_ms", quantile(routerSelf, 0.99), len(routerSelf))
	r.set("transport.hop_p50_ms", median(transportHop), len(transportHop))
	for _, k := range []string{"step", "info", "burst"} {
		if h := handler[k]; len(h) > 0 {
			r.set("httpapi.handler_"+k+"_p50_ms", median(h), len(h))
			r.set("httpapi.handler_"+k+"_p99_ms", quantile(h, 0.99), len(h))
		}
	}
	r.set("httpapi.other_p50_ms", median(other), len(other))
	r.set("httpapi.other_p99_ms", quantile(other, 0.99), len(other))
	r.set("env.step_p50_ms", median(stepMS), len(stepMS))
	r.set("env.step_p99_ms", quantile(stepMS, 0.99), len(stepMS))
	if len(decideUS) > 0 {
		r.set("rl.decide_p50_us", median(decideUS), len(decideUS))
	}
	return nil
}
