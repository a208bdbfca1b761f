// Command miras-chaos evaluates the paper's algorithms under seeded fault
// regimes (consumer crash/restart, service slowdowns, start-up delay
// spikes, queue drops — see internal/faults): the Fig. 6-style burst
// comparison of miras / stream / heft / monad / rl, repeated per regime.
// Same seed + same regimes ⇒ byte-identical CSVs (`make chaos-demo` checks
// exactly that).
//
// Usage:
//
//	miras-chaos -ensemble msd -scale quick -out results/
//	miras-chaos -algorithms stream,heft,monad      # skip training, fast
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"miras/internal/cluster"
	"miras/internal/experiments"
	"miras/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "miras-chaos:", err)
		os.Exit(1)
	}
}

func run() (err error) {
	ensemble := flag.String("ensemble", "msd", "workflow ensemble: msd or ligo")
	scale := flag.String("scale", "quick", "experiment scale: quick, medium, or paper")
	out := flag.String("out", "results", "output directory for CSV files")
	seed := flag.Int64("seed", 0, "override experiment seed (0 keeps the preset)")
	algorithms := flag.String("algorithms", strings.Join(experiments.AlgorithmNames, ","),
		"comma-separated algorithms; omitting miras and rl skips training")
	windows := flag.Int("windows", 0, "override evaluation windows per regime (0 keeps the preset)")
	traceOut := flag.String("trace-out", "", "optional JSONL trace file for structured telemetry")
	logLevel := flag.String("log-level", "info", "trace verbosity: debug or info")
	selfCheck := flag.Bool("selfcheck", false, "run the determinism self-check under every fault regime (paired seeded runs must produce identical digests) and exit")
	flag.Parse()

	s, err := setup(*ensemble, *scale)
	if err != nil {
		return err
	}
	if *seed != 0 {
		s.Seed = *seed
	}
	if *windows > 0 {
		s.CompareWindows = *windows
	}
	if *selfCheck {
		for _, regime := range experiments.ChaosRegimes(s) {
			res, err := experiments.SelfCheck(s, 0, cluster.WithFaultPlan(regime.Plan))
			if err != nil {
				return fmt.Errorf("regime %s: %w", regime.Name, err)
			}
			fmt.Printf("determinism self-check passed: regime=%-13s %d windows, digest %#016x\n",
				regime.Name, res.Windows, res.Digest)
		}
		return nil
	}
	// Sim-time mode keeps the seeded trace byte-identical across runs.
	s.Tracer, err = obs.OpenTracer(*traceOut, *logLevel, obs.TracerConfig{SimTime: true})
	if err != nil {
		return err
	}
	defer func() {
		if cerr := s.Tracer.Close(); err == nil {
			err = cerr // a trace that failed to flush is a failed run
		}
	}()

	algs := splitAlgorithms(*algorithms)
	var trained *experiments.Trained
	if needsTraining(algs) {
		fmt.Println("training MIRAS and the model-free DDPG baseline (equal interaction budgets)...")
		trained, err = experiments.TrainControllers(s)
		if err != nil {
			return err
		}
	}

	regimes := experiments.ChaosRegimes(s)
	fmt.Printf("chaos comparison: ensemble=%s scale=%s algorithms=%v regimes=%d\n",
		s.EnsembleName, *scale, algs, len(regimes))
	results, err := experiments.ChaosCompareAll(s, algs, trained)
	if err != nil {
		return err
	}
	for _, res := range results {
		fmt.Printf("\n--- regime %s: %s ---\n", res.Regime.Name, res.Regime.Description)
		if err := res.Table.Render(os.Stdout, 10); err != nil {
			return err
		}
		fmt.Println("algorithm   completed  mean-delay(s)  crashed  redelivered  dropped")
		for _, series := range res.Table.Series {
			name := series.Name
			fmt.Printf("%-11s %-10d %-14.1f %-8d %-12d %d\n",
				name, res.Completed[name], res.OverallMeanDelay[name],
				res.Crashed[name], res.Redelivered[name], res.Dropped[name])
		}
		csvPath := filepath.Join(*out, res.Table.Title+".csv")
		if err := res.Table.SaveCSV(csvPath); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", csvPath)
	}
	summaryPath := filepath.Join(*out, fmt.Sprintf("chaos-%s-summary.csv", s.EnsembleName))
	if err := experiments.SaveChaosSummary(summaryPath, results); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s\n", summaryPath)
	return nil
}

func splitAlgorithms(csv string) []string {
	var out []string
	for _, a := range strings.Split(csv, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// needsTraining reports whether any requested algorithm is learning-based.
func needsTraining(algs []string) bool {
	for _, a := range algs {
		if a == "miras" || a == "rl" {
			return true
		}
	}
	return false
}

func setup(ensemble, scale string) (experiments.Setup, error) {
	switch scale {
	case "paper":
		return experiments.PaperSetup(ensemble)
	case "medium":
		return experiments.MediumSetup(ensemble)
	case "quick":
		return experiments.QuickSetup(ensemble)
	default:
		return experiments.Setup{}, fmt.Errorf("unknown scale %q (quick, medium, or paper)", scale)
	}
}
