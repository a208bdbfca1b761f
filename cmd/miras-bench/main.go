// Command miras-bench regenerates every figure of the paper's evaluation
// (Figs. 5–8) plus the DESIGN.md ablations for one or both ensembles,
// writing all CSVs and a summary report into the output directory. It is
// the one-shot driver behind EXPERIMENTS.md.
//
// Usage:
//
//	miras-bench -scale quick -out results/            # both ensembles
//	miras-bench -scale paper -ensemble msd -out results/
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"miras/internal/experiments"
	"miras/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "miras-bench:", err)
		os.Exit(1)
	}
}

func run() error {
	ensemble := flag.String("ensemble", "both", "workflow ensemble: msd, ligo, or both")
	scale := flag.String("scale", "quick", "experiment scale: quick, medium, or paper")
	out := flag.String("out", "results", "output directory")
	skipAblations := flag.Bool("skip-ablations", false, "run only the paper figures")
	flag.Parse()

	var ensembles []string
	switch *ensemble {
	case "both":
		ensembles = []string{"msd", "ligo"}
	case "msd", "ligo":
		ensembles = []string{*ensemble}
	default:
		return fmt.Errorf("unknown ensemble %q", *ensemble)
	}

	var report strings.Builder
	fmt.Fprintf(&report, "# MIRAS reproduction run (%s scale, %s)\n\n", *scale, time.Now().Format(time.RFC3339))

	for _, ens := range ensembles {
		s, err := experiments.ScaleSetup(*scale, ens)
		if err != nil {
			return err
		}
		if err := runEnsemble(s, *out, *skipAblations, &report); err != nil {
			return fmt.Errorf("%s: %w", ens, err)
		}
	}

	reportPath := filepath.Join(*out, "summary.md")
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(reportPath, []byte(report.String()), 0o644); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s\n", reportPath)
	return nil
}

func runEnsemble(s experiments.Setup, out string, skipAblations bool, report *strings.Builder) error {
	started := time.Now()
	fmt.Printf("\n=== ensemble %s ===\n", s.EnsembleName)
	fmt.Fprintf(report, "## Ensemble %s\n\n", s.EnsembleName)

	// --- Fig. 5: model accuracy.
	fmt.Println("[1/4] Fig. 5 model accuracy...")
	fig5, err := experiments.ModelAccuracy(s)
	if err != nil {
		return err
	}
	if err := save(out, &fig5.RewardTable); err != nil {
		return err
	}
	if err := save(out, &fig5.WIPTable); err != nil {
		return err
	}
	fmt.Fprintf(report, "- **Fig. 5**: trained on %d samples; reward-series RMSE one-step %.3f, iterative %.3f (iterative ≥ one-step: %v)\n",
		fig5.TrainPoints, fig5.OneStepRMSE, fig5.IterRMSE, fig5.IterRMSE >= fig5.OneStepRMSE)

	// --- Fig. 6 + trained controllers (shared run).
	fmt.Println("[2/4] Fig. 6 MIRAS training + model-free baseline...")
	trained, err := experiments.TrainControllers(s)
	if err != nil {
		return err
	}
	fig6 := trained.TrainingStats
	if err := save(out, &fig6.Table); err != nil {
		return err
	}
	first := fig6.Stats[0].EvalReturn
	last := fig6.Stats[len(fig6.Stats)-1].EvalReturn
	fmt.Fprintf(report, "- **Fig. 6**: eval return %.1f → %.1f over %d iterations (improved: %v)\n",
		first, last, len(fig6.Stats), last > first)

	// --- Figs. 7/8: burst comparisons.
	fmt.Println("[3/4] Figs. 7/8 burst comparisons...")
	comps, err := experiments.CompareAll(s, trained)
	if err != nil {
		return err
	}
	for i, c := range comps {
		if err := save(out, &c.Table); err != nil {
			return err
		}
		// The per-workflow breakdown of the MIRAS run documents the §VI-D
		// deferral behaviour (save it for the first burst panel only).
		if byWF := c.WorkflowTables["miras"]; byWF != nil && i == 0 {
			byWF.Title = fmt.Sprintf("%s-byworkflow", c.Table.Title)
			if err := save(out, byWF); err != nil {
				return err
			}
		}
		best := c.Best()
		fmt.Fprintf(report,
			"- **%s** burst %v: best = %s (%.1fs mean delay, %d completed); miras %.1fs mean delay, %d completed, tail %.1fs\n",
			c.Table.Title, c.Burst, best, c.OverallMeanDelay[best], c.Completed[best],
			c.OverallMeanDelay["miras"], c.Completed["miras"], c.TailMean["miras"])
	}

	// --- Extension experiments (cheap: no extra training).
	fmt.Println("[4/5] extension experiments...")
	dyn, err := experiments.DynamicLoad(s,
		append([]string{"miras"}, "stream", "heft", "monad", "hpa"), trained, 0.5)
	if err != nil {
		return err
	}
	if err := save(out, &dyn.Table); err != nil {
		return err
	}
	fmt.Fprintf(report, "- **Dynamic load (±50%% sine)**: completions miras %d, stream %d, heft %d, monad %d, hpa %d; mean delay miras %.1fs vs heft %.1fs\n",
		dyn.Completed["miras"], dyn.Completed["stream"], dyn.Completed["heft"],
		dyn.Completed["monad"], dyn.Completed["hpa"], dyn.OverallMeanDelay["miras"], dyn.OverallMeanDelay["heft"])

	chaos, err := experiments.Chaos(s, []string{"miras", "stream", "heft", "hpa"}, trained, 60)
	if err != nil {
		return err
	}
	if err := save(out, &chaos.Table); err != nil {
		return err
	}
	fmt.Fprintf(report, "- **Chaos (consumer kill every 60s)**: completions miras %d, stream %d, heft %d, hpa %d; consumers killed miras %d, stream %d, heft %d, hpa %d — no request lost\n",
		chaos.Completed["miras"], chaos.Completed["stream"], chaos.Completed["heft"], chaos.Completed["hpa"],
		chaos.Crashed["miras"], chaos.Crashed["stream"], chaos.Crashed["heft"], chaos.Crashed["hpa"])

	// --- Ablations.
	if !skipAblations {
		fmt.Println("[5/5] ablations...")
		// Noise/refinement ablations each train two full agents; run them
		// at half training scale to bound cost.
		ab := s
		ab.Iterations = s.Iterations / 2
		if ab.Iterations == 0 {
			ab.Iterations = 1
		}
		ab.PolicyEpisodes = s.PolicyEpisodes / 2
		win, err := experiments.WindowLengthAblation(s, []float64{5, 15, 30})
		if err != nil {
			return err
		}
		if err := save(out, &win.Table); err != nil {
			return err
		}
		fmt.Fprintf(report, "- **Window ablation** (monad | stream): 5s %.1f|%.1f, 15s %.1f|%.1f, 30s %.1f|%.1f\n",
			win.MeanDelay[0], win.MeanDelayDRS[0], win.MeanDelay[1], win.MeanDelayDRS[1],
			win.MeanDelay[2], win.MeanDelayDRS[2])

		noise, err := experiments.NoiseAblation(ab)
		if err != nil {
			return err
		}
		if err := save(out, &noise.Table); err != nil {
			return err
		}
		fmt.Fprintf(report, "- **Noise ablation** (best|final eval return): param-noise %.1f|%.1f vs action-noise %.1f|%.1f; %.0f%% of raw action-noise samples violated the constraint before projection\n",
			noise.BestParam, noise.FinalParam, noise.BestAction, noise.FinalAction,
			100*noise.RawViolationRate)

		refine, err := experiments.RefinementAblation(ab)
		if err != nil {
			return err
		}
		if err := save(out, &refine.Table); err != nil {
			return err
		}
		fmt.Fprintf(report, "- **Refinement ablation** (best|final eval return): refined %.1f|%.1f vs raw %.1f|%.1f\n",
			refine.BestRefined, refine.FinalRefined, refine.BestRaw, refine.FinalRaw)

		se, err := experiments.SampleEfficiency(s, trained, 3)
		if err != nil {
			return err
		}
		fmt.Fprintf(report, "- **Sample efficiency**: at %d real interactions, miras return %.1f vs model-free %.1f\n",
			se.Interactions, se.MIRASReturn, se.ModelFreeReturn)
	} else {
		fmt.Println("[5/5] ablations skipped")
	}

	fmt.Fprintf(report, "\n(completed in %s)\n\n", time.Since(started).Round(time.Millisecond))
	return nil
}

func save(out string, t *trace.Table) error {
	path := filepath.Join(out, t.Title+".csv")
	if err := t.SaveCSV(path); err != nil {
		return err
	}
	fmt.Printf("  wrote %s\n", path)
	return nil
}
