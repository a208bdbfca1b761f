// Command miras-compare reproduces Figs. 7 and 8 of the paper: burst
// scenarios comparing MIRAS against DRS ("stream"), HEFT, MONAD, and
// model-free DDPG ("rl") on response time.
//
// Usage:
//
//	miras-compare -ensemble msd -scale quick -out results/
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"miras/internal/experiments"
	"miras/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "miras-compare:", err)
		os.Exit(1)
	}
}

func run() (err error) {
	ensemble := flag.String("ensemble", "msd", "workflow ensemble: msd or ligo")
	scale := flag.String("scale", "quick", "experiment scale: quick, medium, or paper")
	out := flag.String("out", "results", "output directory for CSV files")
	seed := flag.Int64("seed", 0, "override experiment seed (0 keeps the preset)")
	iterations := flag.Int("iterations", 0, "override Algorithm 2 outer iterations (0 keeps the preset)")
	stepsPerIter := flag.Int("steps-per-iter", 0, "override real interactions per iteration (0 keeps the preset)")
	policyEpisodes := flag.Int("policy-episodes", 0, "override synthetic policy episodes per iteration (0 keeps the preset)")
	traceOut := flag.String("trace-out", "", "optional JSONL trace file for structured telemetry")
	logLevel := flag.String("log-level", "info", "trace verbosity: debug or info (debug adds the per-update and consumer start-up spans)")
	selfCheck := flag.Bool("selfcheck", false, "run the determinism self-check (two identically seeded short runs must produce identical digests) and exit")
	flag.Parse()

	s, err := experiments.ScaleSetup(*scale, *ensemble)
	if err != nil {
		return err
	}
	if *seed != 0 {
		s.Seed = *seed
	}
	if *selfCheck {
		res, err := experiments.SelfCheck(s, 0)
		if err != nil {
			return err
		}
		fmt.Printf("determinism self-check passed: %d windows, digest %#016x\n", res.Windows, res.Digest)
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
	if *iterations > 0 {
		s.Iterations = *iterations
	}
	if *stepsPerIter > 0 {
		s.StepsPerIteration = *stepsPerIter
	}
	if *policyEpisodes > 0 {
		s.PolicyEpisodes = *policyEpisodes
	}
	fig := "7"
	if s.EnsembleName == "ligo" {
		fig = "8"
	}
	fmt.Printf("Fig. %s comparison: ensemble=%s scale=%s algorithms=%v\n",
		fig, s.EnsembleName, *scale, experiments.AlgorithmNames)
	fmt.Println("training MIRAS and the model-free DDPG baseline (equal interaction budgets)...")

	trained, err := experiments.TrainControllers(s)
	if err != nil {
		return err
	}
	results, err := experiments.CompareAll(s, trained)
	if err != nil {
		return err
	}
	for i, res := range results {
		fmt.Printf("\n--- burst %d: %v ---\n", i+1, res.Burst)
		if err := res.Table.Render(os.Stdout, 10); err != nil {
			return err
		}
		names := make([]string, 0, len(res.AUC))
		for name := range res.AUC {
			names = append(names, name)
		}
		sort.Slice(names, func(a, b int) bool {
			if res.Completed[names[a]] != res.Completed[names[b]] {
				return res.Completed[names[a]] > res.Completed[names[b]]
			}
			return res.OverallMeanDelay[names[a]] < res.OverallMeanDelay[names[b]]
		})
		fmt.Println("algorithm   completed  mean-delay(s)  tail-mean(s)  AUC")
		for _, name := range names {
			fmt.Printf("%-11s %-10d %-14.1f %-13.1f %.1f\n",
				name, res.Completed[name], res.OverallMeanDelay[name], res.TailMean[name], res.AUC[name])
		}
		fmt.Printf("best (≥90%% completions, lowest mean delay): %s\n", res.Best())
		csvPath := filepath.Join(*out, res.Table.Title+".csv")
		if err := res.Table.SaveCSV(csvPath); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", csvPath)
	}
	return nil
}
