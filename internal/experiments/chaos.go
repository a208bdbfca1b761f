package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"

	"miras/internal/cluster"
	"miras/internal/faults"
)

// This file holds the chaos experiments. ChaosCompare is the declarative
// driver built on internal/faults: every algorithm is evaluated under
// identical seeded fault regimes (paired arrival traces AND paired fault
// processes), giving a Fig. 6-style comparison of burst response under
// failures. Chaos is the kill-timer variant: the same burst scenario with a
// timer that kills one random live consumer at a fixed interval.

// ChaosRegime is one named fault scenario.
type ChaosRegime struct {
	// Name labels the regime in tables and CSV output.
	Name string
	// Description is a one-line human summary.
	Description string
	// Plan is the fault schedule, armed at virtual time zero.
	Plan faults.Plan
}

// ChaosRegimes returns the standard regimes for s, sized relative to the
// evaluation horizon (CompareWindows × WindowSec): a healthy reference, a
// crash/restart renewal process, a mid-run slowdown episode, a start-up
// delay spike, and a queue-drop episode.
func ChaosRegimes(s Setup) []ChaosRegime {
	horizon := float64(s.CompareWindows) * s.WindowSec
	return []ChaosRegime{
		{
			Name:        "healthy",
			Description: "no faults (reference)",
		},
		{
			Name:        "crash",
			Description: "consumer crash/restart renewal across all services",
			Plan: faults.Plan{Specs: []faults.Spec{{
				Kind:        faults.Crash,
				Service:     faults.AllServices,
				StartSec:    0,
				DurationSec: horizon,
				MTTFSec:     horizon / 10,
				MTTRSec:     s.WindowSec / 2,
			}}},
		},
		{
			Name:        "slowdown",
			Description: "3x service-time slowdown over the middle half of the run",
			Plan: faults.Plan{Specs: []faults.Spec{{
				Kind:        faults.Slowdown,
				Service:     faults.AllServices,
				StartSec:    horizon / 4,
				DurationSec: horizon / 2,
				Factor:      3,
			}}},
		},
		{
			Name:        "startup_spike",
			Description: "20x container start-up delays over the middle half, with crashes forcing restarts",
			Plan: faults.Plan{Specs: []faults.Spec{
				{
					Kind:        faults.StartupSpike,
					Service:     faults.AllServices,
					StartSec:    horizon / 4,
					DurationSec: horizon / 2,
					Factor:      20,
				},
				// Without churn a start-up spike is invisible: crashes make
				// the replication controller exercise the spiked delays.
				{
					Kind:        faults.Crash,
					Service:     faults.AllServices,
					StartSec:    horizon / 4,
					DurationSec: horizon / 2,
					MTTFSec:     horizon / 20,
				},
			}},
		},
		{
			Name:        "queue_drop",
			Description: "10% queue drops on the entry service over the middle half",
			Plan: faults.Plan{Specs: []faults.Spec{{
				Kind:        faults.QueueDrop,
				Service:     0,
				StartSec:    horizon / 4,
				DurationSec: horizon / 2,
				Factor:      0.1,
			}}},
		},
	}
}

// ChaosRegimeResult is one regime's comparison across algorithms.
type ChaosRegimeResult struct {
	Regime ChaosRegime
	ScenarioResult
}

// ChaosCompare evaluates the algorithms under one regime: every algorithm
// gets a fresh harness from the same seed (identical arrival trace and,
// because the injector draws from its own named streams, an identical fault
// trajectory), the paper burst is injected at time zero, and the controller
// runs for s.CompareWindows windows.
func ChaosCompare(s Setup, regime ChaosRegime, algorithms []string, trained *Trained) (*ChaosRegimeResult, error) {
	bursts, err := paperOrFallbackBursts(s)
	if err != nil {
		return nil, err
	}
	sc := scenario{
		offset: 900,
		burst:  bursts[0],
		copts:  []cluster.Option{cluster.WithFaultPlan(regime.Plan)},
	}
	r, err := runScenario(s, sc, fmt.Sprintf("chaos-%s-%s", s.EnsembleName, regime.Name), algorithms, trained)
	if err != nil {
		return nil, err
	}
	return &ChaosRegimeResult{Regime: regime, ScenarioResult: *r}, nil
}

// Chaos runs the named controllers under the first paper burst while
// killing one random live consumer every killEverySec of virtual time — the
// infrastructure-reliability stressor the emulation's acknowledgement and
// replication machinery exists for. No workflow request may be lost
// regardless of controller; Crashed reports each run's kill count.
func Chaos(s Setup, algorithms []string, trained *Trained, killEverySec float64) (*ScenarioResult, error) {
	if killEverySec <= 0 {
		return nil, fmt.Errorf("experiments: killEverySec %g must be positive", killEverySec)
	}
	bursts, err := paperOrFallbackBursts(s)
	if err != nil {
		return nil, err
	}
	killTimer := func(h *Harness) error {
		rng := h.Streams.Stream("experiments/chaos")
		var kill func()
		kill = func() {
			alive := h.Cluster.Consumers()
			for attempt := 0; attempt < 4; attempt++ {
				j := rng.Intn(len(alive))
				if alive[j] > 0 {
					if err := h.Cluster.InjectFailure(j); err == nil {
						break
					}
				}
			}
			h.Engine.Schedule(killEverySec, kill)
		}
		h.Engine.Schedule(killEverySec, kill)
		return nil
	}
	return runScenario(s, scenario{offset: 800, burst: bursts[0], arm: killTimer},
		fmt.Sprintf("chaos-%s", s.EnsembleName), algorithms, trained)
}

// ChaosCompareAll evaluates the algorithms under every standard regime.
func ChaosCompareAll(s Setup, algorithms []string, trained *Trained) ([]*ChaosRegimeResult, error) {
	var out []*ChaosRegimeResult
	for _, regime := range ChaosRegimes(s) {
		r, err := ChaosCompare(s, regime, algorithms, trained)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// WriteChaosSummary writes the cross-regime summary as CSV: one row per
// (regime, algorithm) in run order, with completion, delay, and failure
// counters. Output is deterministic, so seeded runs are byte-comparable.
func WriteChaosSummary(w io.Writer, results []*ChaosRegimeResult) error {
	if _, err := fmt.Fprintln(w, "regime,algorithm,completed,mean_delay_sec,crashed,redelivered,dropped"); err != nil {
		return err
	}
	for _, res := range results {
		for _, series := range res.Table.Series {
			name := series.Name
			_, err := fmt.Fprintf(w, "%s,%s,%d,%s,%d,%d,%d\n",
				res.Regime.Name, name,
				res.Completed[name],
				strconv.FormatFloat(res.OverallMeanDelay[name], 'g', -1, 64),
				res.Crashed[name], res.Redelivered[name], res.Dropped[name])
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// SaveChaosSummary writes WriteChaosSummary output to path, creating parent
// directories.
func SaveChaosSummary(path string, results []*ChaosRegimeResult) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("experiments: mkdir for %s: %w", path, err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("experiments: create %s: %w", path, err)
	}
	defer f.Close()
	if err := WriteChaosSummary(f, results); err != nil {
		return fmt.Errorf("experiments: write %s: %w", path, err)
	}
	return f.Close()
}
