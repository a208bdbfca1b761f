package experiments

import (
	"fmt"

	"miras/internal/cluster"
	"miras/internal/env"
	"miras/internal/trace"
	"miras/internal/workflow"
)

// scenario describes one controller comparison. Every algorithm gets a
// fresh harness built from the same (Setup, offset, copts) — paired arrival
// traces and, under a fault plan, paired fault trajectories — so the
// algorithms differ only in their decisions.
type scenario struct {
	// offset is the BuildHarness seed offset shared by every algorithm.
	offset int64
	// burst, when non-nil, is injected at virtual time zero.
	burst []int
	// copts are passed through to BuildHarness (e.g. a fault plan).
	copts []cluster.Option
	// arm, when non-nil, wires an extra process (a load modulator, a kill
	// timer) into each fresh harness after the burst and before the run.
	arm func(h *Harness) error
}

// ScenarioResult is one scenario's comparison across algorithms.
type ScenarioResult struct {
	// Table holds one per-window mean-response-time series per algorithm,
	// in run order — the y-axis of Figs. 7–8.
	Table trace.Table
	// Completed counts workflow requests each algorithm finished during
	// the run. A per-window mean delay of 0 is meaningless when nothing
	// completed, so rankings must read Completed first.
	Completed map[string]int
	// OverallMeanDelay is the completion-weighted mean response time over
	// the whole run (0 if nothing completed).
	OverallMeanDelay map[string]float64
	// Crashed, Redelivered, and Dropped are the cluster's cumulative
	// failure counters at the end of each algorithm's run.
	Crashed     map[string]uint64
	Redelivered map[string]uint64
	Dropped     map[string]uint64
	// WorkflowTables breaks each algorithm's trace down by workflow type —
	// the per-workflow view behind §VI-D's observation that MIRAS defers
	// Coire-terminated workflows under large LIGO bursts and recovers
	// later. One table per algorithm; one series per workflow type.
	WorkflowTables map[string]*trace.Table
}

// Best returns the winning algorithm: among those that completed at least
// 90% of the maximum completion count, the one with the lowest overall
// mean delay. This guards against declaring a starving policy "fast".
func (r *ScenarioResult) Best() string {
	maxDone := 0
	for _, done := range r.Completed {
		if done > maxDone {
			maxDone = done
		}
	}
	best, bestDelay := "", 0.0
	for name, done := range r.Completed {
		if maxDone > 0 && done*10 < maxDone*9 {
			continue
		}
		d := r.OverallMeanDelay[name]
		if best == "" || d < bestDelay {
			best, bestDelay = name, d
		}
	}
	return best
}

// runScenario runs sc once per algorithm, in order: build the harness,
// inject the burst, arm, reset the controller, and drive it for
// s.CompareWindows windows. The table is titled title.
func runScenario(s Setup, sc scenario, title string, algorithms []string, trained *Trained) (*ScenarioResult, error) {
	ens, ok := workflow.ByName(s.EnsembleName)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown ensemble %q", s.EnsembleName)
	}
	res := &ScenarioResult{
		Table:            trace.Table{Title: title, XLabel: "window", YLabel: "mean response time (s)"},
		Completed:        make(map[string]int),
		OverallMeanDelay: make(map[string]float64),
		Crashed:          make(map[string]uint64),
		Redelivered:      make(map[string]uint64),
		Dropped:          make(map[string]uint64),
		WorkflowTables:   make(map[string]*trace.Table),
	}
	for _, name := range algorithms {
		ctrl, err := controllerByName(name, s, ens, trained)
		if err != nil {
			return nil, err
		}
		if err := res.run(s, sc, ens, name, ctrl); err != nil {
			return nil, fmt.Errorf("experiments: %s/%s: %w", title, name, err)
		}
	}
	return res, nil
}

// run executes one algorithm's run of sc and records it under name.
func (r *ScenarioResult) run(s Setup, sc scenario, ens *workflow.Ensemble, name string, ctrl env.Controller) error {
	h, err := BuildHarness(s, sc.offset, sc.copts...)
	if err != nil {
		return err
	}
	if sc.burst != nil {
		if err := h.Generator.InjectBurst(sc.burst); err != nil {
			return err
		}
	}
	if sc.arm != nil {
		if err := sc.arm(h); err != nil {
			return err
		}
	}
	ctrl.Reset()
	results, err := env.Run(h.Env, ctrl, s.CompareWindows)
	if err != nil {
		return err
	}

	nwf := ens.NumWorkflows()
	series := make([]float64, len(results))
	wfSeries := make([][]float64, nwf)
	for i := range wfSeries {
		wfSeries[i] = make([]float64, len(results))
	}
	var delaySum float64
	completed := 0
	for i, res := range results {
		series[i] = res.Stats.MeanDelay()
		for wi, d := range res.Stats.MeanDelayByWorkflow(nwf) {
			wfSeries[wi][i] = d
		}
		for _, c := range res.Stats.Completions {
			delaySum += c.Delay()
			completed++
		}
	}
	r.Table.AddSeries(name, series)
	r.Completed[name] = completed
	if completed > 0 {
		r.OverallMeanDelay[name] = delaySum / float64(completed)
	}
	r.Crashed[name] = h.Cluster.Failures()
	r.Redelivered[name] = h.Cluster.Redeliveries()
	r.Dropped[name] = h.Cluster.Dropped()
	byWF := &trace.Table{
		Title:  fmt.Sprintf("%s-%s-byworkflow", s.EnsembleName, ctrl.Name()),
		XLabel: "window",
		YLabel: "mean response time (s)",
	}
	for wi, wfName := range ens.WorkflowNames() {
		byWF.AddSeries(wfName, wfSeries[wi])
	}
	r.WorkflowTables[name] = byWF
	return nil
}
