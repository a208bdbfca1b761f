package wlcheck

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"time"

	"miras/internal/envmodel"
	"miras/internal/experiments"
	"miras/internal/faults"
	"miras/internal/httpapi"
	"miras/internal/loadgen"
	"miras/internal/rl"
	"miras/internal/router"
)

// Workload is one registered driver: a named measurement the runner can
// execute in-process. Params lists the case.yaml knobs it accepts (all
// scalar, all numeric); Metrics lists the keys its Run returns — budgets
// and regression checks may only reference those, so a typo fails at
// config-load time, not silently at runtime.
type Workload struct {
	Name    string
	Params  []string
	Metrics []string
	Run     func(p Params) (map[string]float64, error)
}

// Params are a case's decoded knobs with defaulting getters.
type Params map[string]float64

func (p Params) intOr(key string, def int) int {
	if v, ok := p[key]; ok {
		return int(v)
	}
	return def
}

// workloads is the registry, keyed by driver name. Every driver measures
// one production-shaped quantity from the ROADMAP's perf claims:
// train-step latency, envmodel-fit throughput, serving sessions/sec under
// a seeded loadgen trace, decide-path p99 under an active fault plan, and
// drain->rehydrate wall time.
var workloads = map[string]Workload{
	"ddpg_update": {
		Name:    "ddpg_update",
		Params:  []string{"ops"},
		Metrics: []string{"ns_per_op", "ops_per_sec"},
		Run:     runDDPGUpdate,
	},
	"envmodel_fit": {
		Name:    "envmodel_fit",
		Params:  []string{"epochs"},
		Metrics: []string{"ns_per_op", "ops_per_sec"},
		Run:     runEnvModelFit,
	},
	"train_step": {
		Name:    "train_step",
		Params:  []string{"iterations"},
		Metrics: []string{"ns_per_op", "ops_per_sec"},
		Run:     runTrainStep,
	},
	"serve_sessions": {
		Name:    "serve_sessions",
		Params:  []string{"requests", "sessions", "concurrency"},
		Metrics: []string{"throughput_rps", "p50_ms", "p90_ms", "p99_ms", "error_rate"},
		Run:     runServeSessions,
	},
	"decide_p99_faults": {
		Name:    "decide_p99_faults",
		Params:  []string{"requests", "sessions", "concurrency"},
		Metrics: []string{"throughput_rps", "p50_ms", "p90_ms", "p99_ms", "error_rate"},
		Run:     runDecideFaults,
	},
	"drain_rehydrate": {
		Name:    "drain_rehydrate",
		Params:  []string{"sessions", "steps"},
		Metrics: []string{"total_ms", "drain_ms", "rehydrate_ms"},
		Run:     runDrainRehydrate,
	},
	"router_failover": {
		Name:    "router_failover",
		Params:  []string{"requests", "sessions", "concurrency"},
		Metrics: []string{"throughput_rps", "p99_ms", "error_rate", "availability_pct", "failovers"},
		Run:     runRouterFailover,
	},
}

func lookupWorkload(name string) (Workload, bool) {
	w, ok := workloads[name]
	return w, ok
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// opsMetrics renders an op count and total duration as the standard
// latency/throughput metric pair.
func opsMetrics(ops int, elapsed time.Duration) map[string]float64 {
	m := map[string]float64{
		"ns_per_op":   float64(elapsed.Nanoseconds()) / float64(ops),
		"ops_per_sec": 0,
	}
	if elapsed > 0 {
		m["ops_per_sec"] = float64(ops) / elapsed.Seconds()
	}
	return m
}

// runDDPGUpdate times batched DDPG updates on the same configuration as
// BenchmarkDDPGUpdate (bench_test.go), so its ns_per_op is directly
// comparable to the BenchmarkDDPGUpdate rows of the BENCH trajectory.
func runDDPGUpdate(p Params) (map[string]float64, error) {
	ops := p.intOr("ops", 50)
	agent, err := rl.NewDDPG(rl.Config{
		StateDim: 4, ActionDim: 4, Hidden: []int{64, 64, 64},
		BatchSize: 64, Seed: 6,
	})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 256; i++ {
		s := []float64{rng.Float64() * 50, rng.Float64() * 50, rng.Float64() * 50, rng.Float64() * 50}
		agent.Observe(rl.Experience{State: s, Action: agent.Act(s), Next: s, Reward: -rng.Float64() * 100})
	}
	agent.Update() // warm scratch buffers outside the timed region
	start := time.Now()
	for i := 0; i < ops; i++ {
		agent.Update()
	}
	return opsMetrics(ops, time.Since(start)), nil
}

// runEnvModelFit times performance-model training epochs on the same
// configuration as BenchmarkEnvModelFit, comparable to its BENCH rows.
func runEnvModelFit(p Params) (map[string]float64, error) {
	epochs := p.intOr("epochs", 60)
	rng := rand.New(rand.NewSource(10))
	d := envmodel.NewDataset(4, 4)
	s := make([]float64, 4)
	a := make([]float64, 4)
	for i := 0; i < 512; i++ {
		for j := range s {
			s[j] = rng.Float64() * 50
			a[j] = rng.Float64() / 4
		}
		d.Add(s, a, s)
	}
	m, err := envmodel.New(envmodel.Config{StateDim: 4, ActionDim: 4, Hidden: []int{20, 20, 20}, Seed: 11})
	if err != nil {
		return nil, err
	}
	if _, err := m.Fit(d, 1); err != nil { // warm buffers
		return nil, err
	}
	start := time.Now()
	for i := 0; i < epochs; i++ {
		if _, err := m.Fit(d, 1); err != nil {
			return nil, err
		}
	}
	return opsMetrics(epochs, time.Since(start)), nil
}

// runTrainStep times whole Algorithm-2 iterations (collect, model fit,
// policy improvement, evaluation) on the quick MSD setup — the end-to-end
// train-step latency no micro-benchmark covers.
func runTrainStep(p Params) (map[string]float64, error) {
	iters := p.intOr("iterations", 2)
	s, err := experiments.QuickSetup("msd")
	if err != nil {
		return nil, err
	}
	s.Iterations = iters
	start := time.Now()
	if _, err := experiments.TrainingTrace(s); err != nil {
		return nil, err
	}
	return opsMetrics(iters, time.Since(start)), nil
}

// runServeSessions replays a seeded Zipf-skewed loadgen trace against an
// in-process httpapi server (handler transport, no sockets) and reports
// the serving tier's throughput and latency quantiles.
func runServeSessions(p Params) (map[string]float64, error) {
	srv := httpapi.NewServer()
	res, err := loadgen.Run(loadgen.Config{
		Transport:   loadgen.NewHandlerTransport(srv.Handler()),
		Requests:    p.intOr("requests", 600),
		Sessions:    p.intOr("sessions", 12),
		Concurrency: p.intOr("concurrency", 8),
		Skew:        "zipf",
		Seed:        1,
	})
	if err != nil {
		return nil, err
	}
	return loadgenMetrics(res), nil
}

// runDecideFaults measures the serving decide path under duress: every
// session is failure-aware, runs an active fault plan (a crash renewal
// process plus a long slowdown episode), has a policy attached, and every
// step is an auto-step — the server's controller (policy, or its HPA
// fallback) picks the allocation. p99_ms is the headline metric.
func runDecideFaults(p Params) (map[string]float64, error) {
	srv := httpapi.NewServer()
	// Toy ensemble: 2 services; failure-aware doubles the state.
	agent, err := rl.NewDDPG(rl.Config{StateDim: 4, ActionDim: 2, Hidden: []int{8, 8}, Seed: 3})
	if err != nil {
		return nil, err
	}
	policyBody, err := json.Marshal(agent.Snapshot())
	if err != nil {
		return nil, err
	}
	plan := &faults.Plan{Specs: []faults.Spec{
		{Kind: faults.Crash, Service: 0, StartSec: 0, MTTFSec: 60, MTTRSec: 15},
		{Kind: faults.Slowdown, Service: 1, StartSec: 0, DurationSec: 1e6, Factor: 2},
	}}
	res, err := loadgen.Run(loadgen.Config{
		Transport:    loadgen.NewHandlerTransport(srv.Handler()),
		Requests:     p.intOr("requests", 400),
		Sessions:     p.intOr("sessions", 8),
		Concurrency:  p.intOr("concurrency", 8),
		Skew:         "zipf",
		Seed:         1,
		FailureAware: true,
		Faults:       plan,
		AutoStep:     true,
		SetupSession: func(client *http.Client, info httpapi.SessionInfo) error {
			resp, err := client.Post("http://in-process/v1/sessions/"+info.ID+"/policy",
				"application/json", bytes.NewReader(policyBody))
			if err != nil {
				return err
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("attach policy: status %d", resp.StatusCode)
			}
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	return loadgenMetrics(res), nil
}

// runDrainRehydrate measures the shard-retirement path: spill every live
// session's snapshot to disk (drain), then rebuild them all from those
// snapshots (rehydrate). The measured wall time is what a rolling
// restart pays per process.
func runDrainRehydrate(p Params) (map[string]float64, error) {
	sessions := p.intOr("sessions", 12)
	steps := p.intOr("steps", 3)
	spill, err := os.MkdirTemp("", "wlcheck-spill-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(spill)
	srv := httpapi.NewServer(httpapi.WithSpillDir(spill))
	client := &http.Client{Transport: loadgen.NewHandlerTransport(srv.Handler())}
	base := "http://in-process"

	post := func(path string, body []byte, want int) ([]byte, error) {
		resp, err := client.Post(base+path, "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != want {
			return nil, fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, raw)
		}
		return raw, nil
	}

	createBody, err := json.Marshal(httpapi.CreateRequest{Ensemble: "toy", Budget: 6, WindowSec: 10, Seed: 1})
	if err != nil {
		return nil, err
	}
	stepBody, err := json.Marshal(httpapi.StepRequest{Allocation: []int{3, 3}})
	if err != nil {
		return nil, err
	}
	ids := make([]string, sessions)
	for i := range ids {
		raw, err := post("/v1/sessions", createBody, http.StatusCreated)
		if err != nil {
			return nil, err
		}
		var info httpapi.SessionInfo
		if err := json.Unmarshal(raw, &info); err != nil {
			return nil, err
		}
		ids[i] = info.ID
		for k := 0; k < steps; k++ {
			if _, err := post("/v1/sessions/"+info.ID+"/step", stepBody, http.StatusOK); err != nil {
				return nil, err
			}
		}
	}

	start := time.Now()
	drainRaw, err := post("/v1/admin/drain", nil, http.StatusOK)
	if err != nil {
		return nil, err
	}
	drained := time.Since(start)
	var drain httpapi.DrainResponse
	if err := json.Unmarshal(drainRaw, &drain); err != nil {
		return nil, err
	}
	if len(drain.Spilled) != sessions {
		return nil, fmt.Errorf("drain spilled %d of %d sessions", len(drain.Spilled), sessions)
	}
	rehydRaw, err := post("/v1/admin/rehydrate", nil, http.StatusOK)
	if err != nil {
		return nil, err
	}
	total := time.Since(start)
	var rehyd httpapi.RehydrateResponse
	if err := json.Unmarshal(rehydRaw, &rehyd); err != nil {
		return nil, err
	}
	if len(rehyd.Rehydrated) != sessions || len(rehyd.Failed) != 0 {
		return nil, fmt.Errorf("rehydrate recovered %d of %d sessions (%d failed)",
			len(rehyd.Rehydrated), sessions, len(rehyd.Failed))
	}
	return map[string]float64{
		"total_ms":     float64(total.Nanoseconds()) / 1e6,
		"drain_ms":     float64(drained.Nanoseconds()) / 1e6,
		"rehydrate_ms": float64((total - drained).Nanoseconds()) / 1e6,
	}, nil
}

// runRouterFailover replays a seeded Zipf trace through a resilient
// in-process router fronting two shard servers, SIGKILL-equivalently
// drops one shard at 40% of the trace (spilling its snapshots first, the
// way -spill-sync-interval keeps them fresh in production), and measures
// the client-visible damage: error_rate and availability_pct across the
// outage, plus the failover count. Zero failovers is a hard error — the
// recovery path, not just the replay, is what this case gates.
func runRouterFailover(p Params) (map[string]float64, error) {
	spill, err := os.MkdirTemp("", "wlcheck-failover-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(spill)

	members := []string{"http://shard-0", "http://shard-1"}
	fleet := loadgen.NewFleetTransport()
	servers := make([]*httpapi.Server, len(members))
	for i, m := range members {
		servers[i] = httpapi.NewServer(
			httpapi.WithShardTopology(m, members),
			httpapi.WithSpillDir(spill),
		)
		fleet.Register(m, servers[i].Handler())
	}

	rt, err := router.New(members,
		router.WithClient(&http.Client{Transport: fleet}),
		router.WithResilience(router.Resilience{
			MaxRetries:       4,
			RetryBase:        time.Millisecond,
			RetryCap:         20 * time.Millisecond,
			BreakerThreshold: 2,
			BreakerCooldown:  50 * time.Millisecond,
			Failover:         true,
		}),
	)
	if err != nil {
		return nil, err
	}

	victim := members[1]
	res, err := loadgen.Run(loadgen.Config{
		Transport:       loadgen.NewHandlerTransport(rt.Handler()),
		Requests:        p.intOr("requests", 800),
		Sessions:        p.intOr("sessions", 16),
		Concurrency:     p.intOr("concurrency", 8),
		Skew:            "zipf",
		Seed:            1,
		IdempotencyKeys: true,
		ChaosKillAt:     0.4,
		KillHook: func() {
			// Spill before the kill: in production the victim's snapshots
			// are already on shared disk via -spill-sync-interval.
			_, _ = servers[1].SpillAll()
			fleet.Kill(victim)
		},
	})
	if err != nil {
		return nil, err
	}

	// The failover rehydrate runs in a router goroutine; give a straggler
	// a moment before declaring the recovery path broken.
	failovers := rt.Registry().Counter("miras_router_failover_total", "").Value()
	for wait := 0; failovers == 0 && wait < 200; wait++ {
		time.Sleep(10 * time.Millisecond)
		failovers = rt.Registry().Counter("miras_router_failover_total", "").Value()
	}
	if failovers == 0 {
		return nil, fmt.Errorf("shard kill at 40%% of the trace triggered no failover (statuses %v)", res.Statuses)
	}

	m := loadgenMetrics(res)
	delete(m, "p50_ms")
	delete(m, "p90_ms")
	m["availability_pct"] = res.AvailabilityPct
	m["failovers"] = float64(failovers)
	return m, nil
}

// loadgenMetrics maps a loadgen.Result onto the serving workloads'
// declared metric keys.
func loadgenMetrics(res loadgen.Result) map[string]float64 {
	return map[string]float64{
		"throughput_rps": res.ThroughputRPS,
		"p50_ms":         res.P50Ms,
		"p90_ms":         res.P90Ms,
		"p99_ms":         res.P99Ms,
		"error_rate":     res.ErrorRate,
	}
}
