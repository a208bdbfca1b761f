// Command miras-sweep runs the extension studies that go beyond the
// paper's figures: the consumer-budget cost–performance sweep, the
// dynamic-load comparison, the chaos (consumer-failure) comparison, and
// multi-seed aggregation of the burst comparison with ±σ bands.
//
// Usage:
//
//	miras-sweep -ensemble msd -study budget -out results/
//	miras-sweep -ensemble msd -study dynamic
//	miras-sweep -ensemble msd -study chaos
//	miras-sweep -ensemble msd -study multiseed -seeds 1,2,3
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"miras/internal/experiments"
	"miras/internal/obs"
	"miras/internal/trace"
)

// nonLearning are the controllers that need no training.
var nonLearning = []string{"stream", "heft", "monad", "hpa", "static"}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "miras-sweep:", err)
		os.Exit(1)
	}
}

func run() (err error) {
	ensemble := flag.String("ensemble", "msd", "workflow ensemble: msd or ligo")
	study := flag.String("study", "budget", "study: budget, dynamic, chaos, or multiseed")
	out := flag.String("out", "results", "output directory for CSV files")
	budgets := flag.String("budgets", "", "comma-separated budgets for -study budget (default ½C,C,2C)")
	seeds := flag.String("seeds", "1,2,3", "comma-separated seeds for -study multiseed")
	traceOut := flag.String("trace-out", "", "optional JSONL trace file for structured telemetry")
	logLevel := flag.String("log-level", "info", "trace verbosity: debug or info (debug adds the per-update and consumer start-up spans)")
	flag.Parse()

	s, err := experiments.MediumSetup(*ensemble)
	if err != nil {
		return err
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
	switch *study {
	case "budget":
		bs, err := parseInts(*budgets)
		if err != nil {
			return err
		}
		if len(bs) == 0 {
			bs = []int{s.Budget / 2, s.Budget, s.Budget * 2}
		}
		res, err := experiments.BudgetSweep(s, nonLearning, bs)
		if err != nil {
			return err
		}
		if err := res.Table.Render(os.Stdout, 10); err != nil {
			return err
		}
		for _, name := range nonLearning {
			fmt.Printf("%-8s completions by budget %v: %v\n", name, bs, res.Completed[name])
		}
		return saveTable(*out, &res.Table)

	case "dynamic":
		res, err := experiments.DynamicLoad(s, nonLearning, nil, 0.5)
		if err != nil {
			return err
		}
		if err := res.Table.Render(os.Stdout, 10); err != nil {
			return err
		}
		for _, name := range nonLearning {
			fmt.Printf("%-8s completed %d, mean delay %.1fs\n",
				name, res.Completed[name], res.MeanDelay[name])
		}
		return saveTable(*out, &res.Table)

	case "chaos":
		res, err := experiments.Chaos(s, nonLearning, nil, 60)
		if err != nil {
			return err
		}
		if err := res.Table.Render(os.Stdout, 10); err != nil {
			return err
		}
		fmt.Printf("%d consumer failures injected per run; completions:\n", res.Failures)
		for _, name := range nonLearning {
			fmt.Printf("%-8s %d (mean delay %.1fs)\n", name, res.Completed[name], res.MeanDelay[name])
		}
		return saveTable(*out, &res.Table)

	case "multiseed":
		seedList, err := parseInt64s(*seeds)
		if err != nil {
			return err
		}
		bursts := []int{100, 60, 100}
		if s.EnsembleName == "ligo" {
			bursts = []int{50, 50, 25, 15}
		}
		agg, err := experiments.MultiSeedTable(s, seedList, func(s experiments.Setup) (*trace.Table, error) {
			res, err := experiments.Compare(s, bursts, []string{"stream", "heft", "monad"}, nil)
			if err != nil {
				return nil, err
			}
			return &res.Table, nil
		})
		if err != nil {
			return err
		}
		fmt.Printf("aggregated %d seeds into mean ± σ bands (%d series)\n",
			len(seedList), len(agg.Series))
		return saveTable(*out, agg)

	default:
		return fmt.Errorf("unknown study %q (budget, dynamic, chaos, multiseed)", *study)
	}
}

func saveTable(out string, t *trace.Table) error {
	path := filepath.Join(out, t.Title+".csv")
	if err := t.SaveCSV(path); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

func parseInts(spec string) ([]int, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	var out []int
	for _, p := range strings.Split(spec, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad integer %q: %w", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseInt64s(spec string) ([]int64, error) {
	ints, err := parseInts(spec)
	if err != nil {
		return nil, err
	}
	out := make([]int64, len(ints))
	for i, v := range ints {
		out[i] = int64(v)
	}
	return out, nil
}
