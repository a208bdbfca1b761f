// Package env wraps the emulated microservice cluster as a windowed
// control environment with the paper's state/action/reward definitions
// (§IV-B):
//
//	state  s(k) = w(k), the per-microservice work-in-progress vector;
//	action a(k) = m(k), the per-microservice consumer counts, with
//	              Σ_j m_j ≤ C (the consumer budget);
//	reward r(k) = 1 − Σ_j w_j(k+1), the negated aggregate WIP observed at
//	              the end of the window (Eq. 1, with the paper's Σ_{j=1}^{3}
//	              read as Σ_{j=1}^{J}).
//
// Each Step applies an allocation at the beginning of a time window
// (default 30 virtual seconds, §VI-A2), advances the emulation one window,
// and returns the next state together with the window's observable
// statistics, which the non-RL baseline controllers consume.
package env

import (
	"fmt"
	"math"

	"miras/internal/cluster"
	"miras/internal/invariant"
	"miras/internal/mat"
	"miras/internal/obs"
	"miras/internal/workload"
)

// DefaultWindowSec is the paper's chosen control interval (§VI-A2).
const DefaultWindowSec = 30.0

// Config parameterises an Env.
type Config struct {
	// Cluster is the emulated microservice system. Required.
	Cluster *cluster.Cluster
	// Generator optionally supplies background arrivals; it keeps running
	// across Reset.
	Generator *workload.Generator
	// WindowSec is the control window length; defaults to DefaultWindowSec.
	WindowSec float64
	// Budget is the total consumer constraint C (14 for MSD, 30 for LIGO
	// in the paper, §VI-A4). Required, positive.
	Budget int
	// Tracer, when non-nil, emits one "env.window" span per Step covering
	// the virtual control window — the (s, a, r) triple of §IV-B plus the
	// delay observable of Fig. 6 — with the cluster's scale actuation and
	// any fault episodes activated inside the window parented under it,
	// and one zero-duration "env.constraint_violation" span per rejected
	// action.
	// Step installs the span as the tracer's ambient parent for the
	// window's duration, so a Tracer must not be shared by envs stepping
	// concurrently (the HTTP server leaves session envs untraced for this
	// reason). Nil disables tracing at zero cost.
	Tracer *obs.Tracer
	// FailureAware appends the cluster's per-microservice effective
	// capacity (started consumers divided by any active slowdown factor)
	// to the state vector, letting a policy observe fault degradation
	// directly: s(k) = [w(k) | c_eff(k)], doubling StateDim. The action
	// space, reward, and Stats are unchanged — see ActionDim.
	FailureAware bool
}

// Stats exposes everything observable about one completed window. RL uses
// only WIP; the queueing-theoretic baselines (DRS, MONAD, HEFT) use the
// rates.
type Stats struct {
	// Window is the window index since environment construction.
	Window int
	// WIP is the work-in-progress vector at the end of the window.
	WIP []float64
	// Consumers is the number of started consumers per microservice at
	// window end.
	Consumers []int
	// ArrivalRate is the per-microservice task arrival rate (tasks/sec)
	// measured over the window.
	ArrivalRate []float64
	// CompletionRate is the per-microservice task completion rate
	// (tasks/sec) over the window.
	CompletionRate []float64
	// ServiceMean is the cumulative empirical mean service duration per
	// microservice (sec), or the ensemble's nominal mean before any
	// request has completed.
	ServiceMean []float64
	// Utilization is per-microservice busy-consumer-seconds divided by
	// available consumer-seconds over the window (may exceed 1 transiently
	// after scale-down, since running tasks are not preempted).
	Utilization []float64
	// Completions lists the workflow requests that finished during the
	// window, with their end-to-end delays.
	Completions []cluster.Completion
}

// MeanDelay returns the mean end-to-end delay of workflow requests
// completed in the window, or 0 if none completed.
func (s Stats) MeanDelay() float64 {
	if len(s.Completions) == 0 {
		return 0
	}
	var sum float64
	for _, c := range s.Completions {
		sum += c.Delay()
	}
	return sum / float64(len(s.Completions))
}

// MeanDelayByWorkflow returns per-workflow-type mean delays over the
// window's completions (0 where no request of the type completed).
func (s Stats) MeanDelayByWorkflow(numWorkflows int) []float64 {
	sums := make([]float64, numWorkflows)
	counts := make([]int, numWorkflows)
	for _, c := range s.Completions {
		sums[c.Workflow] += c.Delay()
		counts[c.Workflow]++
	}
	for i := range sums {
		if counts[i] > 0 {
			sums[i] /= float64(counts[i])
		}
	}
	return sums
}

// StepResult is what one control interaction returns.
type StepResult struct {
	// State is s(k+1) — the WIP vector ending the window.
	State []float64
	// Reward is r(k) = 1 − Σ_j State_j.
	Reward float64
	// Stats carries the window's full observables.
	Stats Stats
}

// Env is the real-environment control interface. It is single-threaded,
// like the engine beneath it.
type Env struct {
	cfg        Config
	window     int
	lastSnap   cluster.Counters
	violations int
	inv        *invariant.Set
}

// New validates cfg and returns an Env.
func New(cfg Config) (*Env, error) {
	if cfg.Cluster == nil {
		return nil, fmt.Errorf("env: Cluster is required")
	}
	if cfg.Budget <= 0 {
		return nil, fmt.Errorf("env: Budget must be positive, got %d", cfg.Budget)
	}
	if cfg.WindowSec == 0 {
		cfg.WindowSec = DefaultWindowSec
	}
	if !(cfg.WindowSec > 0) { // rejects non-positive and NaN
		return nil, fmt.Errorf("env: WindowSec must be positive, got %g", cfg.WindowSec)
	}
	e := &Env{cfg: cfg, lastSnap: cfg.Cluster.Snapshot()}
	e.registerInvariants()
	return e, nil
}

// registerInvariants declares the environment-level runtime invariants; Step
// evaluates them (plus the cluster's set) at every window boundary when
// invariant checking is enabled.
func (e *Env) registerInvariants() {
	inv := invariant.NewSet("env")
	// The observation must be well-formed: correct arity, and every WIP
	// entry a finite non-negative count. NaN here would poison the replay
	// buffer and every model fitted from it.
	inv.Register("state-valid", func() error {
		state := e.observe(e.cfg.Cluster.WIP())
		if len(state) != e.StateDim() {
			return fmt.Errorf("state has %d entries, want StateDim %d", len(state), e.StateDim())
		}
		for i, v := range state {
			if math.IsNaN(v) || math.IsInf(v, 0) || (i < e.ActionDim() && v < 0) {
				return fmt.Errorf("state[%d] = %g is not a valid observation", i, v)
			}
		}
		return nil
	})
	// The actuated allocation can never exceed the consumer budget: Step
	// validates every action, so a violation means something scaled the
	// cluster behind the environment's back.
	inv.Register("budget", func() error {
		total := 0
		for _, m := range e.cfg.Cluster.Targets() {
			total += m
		}
		if total > e.cfg.Budget {
			return fmt.Errorf("allocated %d consumers exceeds budget %d", total, e.cfg.Budget)
		}
		return nil
	})
	e.inv = inv
}

// StateDim returns the observation width: J (the number of microservices)
// normally, 2J when the environment is failure-aware.
func (e *Env) StateDim() int {
	if e.cfg.FailureAware {
		return 2 * e.cfg.Cluster.NumTasks()
	}
	return e.cfg.Cluster.NumTasks()
}

// ActionDim returns the action width: always J, one consumer count per
// microservice, regardless of how wide the observation is.
func (e *Env) ActionDim() int { return e.cfg.Cluster.NumTasks() }

// FailureAware reports whether the state vector carries failure
// observables.
func (e *Env) FailureAware() bool { return e.cfg.FailureAware }

// Budget returns the consumer constraint C.
func (e *Env) Budget() int { return e.cfg.Budget }

// WindowSec returns the control window length.
func (e *Env) WindowSec() float64 { return e.cfg.WindowSec }

// Cluster returns the underlying cluster (read-only use intended).
func (e *Env) Cluster() *cluster.Cluster { return e.cfg.Cluster }

// Window returns the number of completed control windows.
func (e *Env) Window() int { return e.window }

// ConstraintViolations counts Step calls rejected for exceeding the budget;
// the paper reports that naive action-space exploration frequently violates
// the constraint (§IV-D), so the env keeps score.
func (e *Env) ConstraintViolations() int { return e.violations }

// Reset implements the paper's environment reset (§VI-A3): WIP is brought
// (here: instantly) to zero. Background arrivals keep running — and so do
// any armed faults. It returns the fresh state observation.
func (e *Env) Reset() []float64 {
	e.cfg.Cluster.Clear()
	e.lastSnap = e.cfg.Cluster.Snapshot()
	return e.observe(e.cfg.Cluster.WIP())
}

// State returns the current observation without advancing time.
func (e *Env) State() []float64 { return e.observe(e.cfg.Cluster.WIP()) }

// observe extends the WIP vector with the failure observables when the
// environment is failure-aware; otherwise it returns wip unchanged.
func (e *Env) observe(wip []float64) []float64 {
	if !e.cfg.FailureAware {
		return wip
	}
	out := make([]float64, 0, 2*len(wip))
	out = append(out, wip...)
	return append(out, e.cfg.Cluster.EffectiveCapacity()...)
}

// Step applies allocation m for the next window, advances one window of
// virtual time, and returns the resulting state, reward, and stats. It
// returns an error (without advancing) if m has the wrong arity, a negative
// entry, or Σ m_j > Budget.
func (e *Env) Step(m []int) (StepResult, error) {
	if len(m) != e.ActionDim() {
		return StepResult{}, fmt.Errorf("env: action has %d entries for %d microservices", len(m), e.ActionDim())
	}
	total := 0
	for j, v := range m {
		if v < 0 {
			return StepResult{}, fmt.Errorf("env: negative allocation %d for microservice %d", v, j)
		}
		total += v
	}
	if total > e.cfg.Budget {
		e.violations++
		now := e.cfg.Cluster.Now()
		e.cfg.Tracer.Start("env.constraint_violation").
			T0(now).
			Int("window", e.window).
			Ints("action", m).
			Int("total", total).
			Int("budget", e.cfg.Budget).
			EndT(now)
		return StepResult{}, fmt.Errorf("env: allocation total %d exceeds budget %d", total, e.cfg.Budget)
	}
	c := e.cfg.Cluster
	winSpan := e.cfg.Tracer.Start("env.window").T0(c.Now()).Int("window", e.window).Ints("action", m)
	restoreParent := e.cfg.Tracer.SetParent(winSpan)
	if err := c.SetConsumers(m); err != nil {
		restoreParent()
		return StepResult{}, err
	}
	start := c.Now()
	c.AdvanceTo(start + e.cfg.WindowSec)
	restoreParent()
	e.window++

	// Window boundaries are the natural verification checkpoint: the engine
	// is quiescent and every counter is settled. Both Run calls are no-ops
	// unless invariant checking is enabled.
	c.CheckInvariants()
	e.inv.Run()

	snap := c.Snapshot()
	wip := c.WIP()
	stats := e.buildStats(wip, snap)
	e.lastSnap = snap

	// Eq. 1 reward is defined on WIP alone; failure observables extend
	// the state but never the reward.
	var sum float64
	for _, w := range wip {
		sum += w
	}
	res := StepResult{State: e.observe(wip), Reward: 1 - sum, Stats: stats}
	if winSpan != nil {
		winSpan.F64("reward", res.Reward).
			F64s("wip", wip).
			F64("mean_delay", stats.MeanDelay()).
			Int("completed", len(stats.Completions)).
			EndT(c.Now())
	}
	return res, nil
}

// buildStats assembles window observables from counter deltas.
func (e *Env) buildStats(state []float64, snap cluster.Counters) Stats {
	c := e.cfg.Cluster
	j := e.ActionDim()
	st := Stats{
		Window:         e.window,
		WIP:            state,
		Consumers:      c.Consumers(),
		ArrivalRate:    make([]float64, j),
		CompletionRate: make([]float64, j),
		ServiceMean:    make([]float64, j),
		Utilization:    make([]float64, j),
		Completions:    c.DrainCompletions(),
	}
	w := e.cfg.WindowSec
	for i := 0; i < j; i++ {
		st.ArrivalRate[i] = float64(snap.Arrivals[i]-e.lastSnap.Arrivals[i]) / w
		st.CompletionRate[i] = float64(snap.Completions[i]-e.lastSnap.Completions[i]) / w
		if snap.ServiceCount[i] > 0 {
			st.ServiceMean[i] = snap.ServiceSum[i] / float64(snap.ServiceCount[i])
		} else {
			st.ServiceMean[i] = c.Ensemble().Tasks[i].MeanServiceSec
		}
		if st.Consumers[i] > 0 {
			st.Utilization[i] = (snap.BusySeconds[i] - e.lastSnap.BusySeconds[i]) /
				(float64(st.Consumers[i]) * w)
		}
	}
	return st
}

// Controller is a resource-allocation policy: given the previous window's
// observables, it decides the consumer allocation for the next window.
// Implementations must respect Σ m_j ≤ budget.
type Controller interface {
	// Name identifies the controller in experiment output.
	Name() string
	// Decide returns the allocation for the next window.
	Decide(prev StepResult) []int
	// Reset clears any internal state between evaluation episodes.
	Reset()
}

// Run drives the environment with the controller for the given number of
// windows, returning one StepResult per window. The first decision sees a
// synthetic StepResult holding the current state and empty stats. A
// negative window count is an error; zero windows return an empty result.
func Run(e *Env, ctrl Controller, windows int) ([]StepResult, error) {
	if windows < 0 {
		return nil, fmt.Errorf("env: negative window count %d", windows)
	}
	results := make([]StepResult, 0, windows)
	prev := StepResult{State: e.State(), Stats: Stats{
		WIP:       e.Cluster().WIP(),
		Consumers: e.Cluster().Consumers(),
	}}
	for k := 0; k < windows; k++ {
		m := ctrl.Decide(prev)
		res, err := e.Step(m)
		if err != nil {
			return results, fmt.Errorf("env: window %d (%s): %w", k, ctrl.Name(), err)
		}
		results = append(results, res)
		prev = res
	}
	return results, nil
}

// DelayPercentile returns the p-th percentile of the window's completion
// delays, or 0 when nothing completed. Response-time SLOs are usually
// stated as p95/p99, so the stats expose percentiles alongside the mean.
func (s Stats) DelayPercentile(p float64) float64 {
	if len(s.Completions) == 0 {
		return 0
	}
	delays := make([]float64, len(s.Completions))
	for i, c := range s.Completions {
		delays[i] = c.Delay()
	}
	return mat.Percentile(delays, p)
}
