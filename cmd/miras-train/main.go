// Command miras-train reproduces Fig. 6 of the paper: the MIRAS iterative
// model-based training loop (Algorithm 2), printing the per-iteration
// aggregated evaluation reward and optionally saving the trained actor.
//
// Usage:
//
//	miras-train -ensemble msd -scale quick -out results/ -save-policy policy.json
//
// With -checkpoint-dir the full training state is checkpointed after every
// outer iteration, and SIGINT/SIGTERM stops cleanly at the next iteration
// boundary (exit 0, no CSVs). Re-running with -resume continues from the
// newest checkpoint and reproduces the uninterrupted run bit for bit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"miras/internal/core"
	"miras/internal/experiments"
	"miras/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "miras-train:", err)
		os.Exit(1)
	}
}

func run() (err error) {
	ensemble := flag.String("ensemble", "msd", "workflow ensemble: msd or ligo")
	scale := flag.String("scale", "quick", "experiment scale: quick, medium, or paper")
	out := flag.String("out", "results", "output directory for CSV files")
	savePolicy := flag.String("save-policy", "", "optional path to save the trained policy snapshot (JSON)")
	seed := flag.Int64("seed", 0, "override experiment seed (0 keeps the preset)")
	traceOut := flag.String("trace-out", "", "optional JSONL trace file for structured training telemetry")
	logLevel := flag.String("log-level", "info", "trace verbosity: debug or info (debug adds the per-update and consumer start-up spans)")
	selfCheck := flag.Bool("selfcheck", false, "run the determinism self-check (two identically seeded short runs must produce identical digests) and exit")
	profileDir := flag.String("profile-dir", "", "directory for anomaly-triggered pprof captures (empty disables)")
	checkpointDir := flag.String("checkpoint-dir", "", "directory for per-iteration training checkpoints (empty disables)")
	checkpointKeep := flag.Int("checkpoint-keep", 0, "checkpoint files to retain (0 keeps the store default)")
	resume := flag.Bool("resume", false, "continue from the newest checkpoint in -checkpoint-dir")
	iterations := flag.Int("iterations", 0, "override the preset's outer iteration count (0 keeps the preset)")
	flag.Parse()

	if *resume && *checkpointDir == "" {
		return fmt.Errorf("-resume requires -checkpoint-dir")
	}
	s, err := setup(*ensemble, *scale)
	if err != nil {
		return err
	}
	if *seed != 0 {
		s.Seed = *seed
	}
	if *iterations != 0 {
		s.Iterations = *iterations
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
	if *profileDir != "" {
		prof, err := obs.NewProfileCapturer(obs.ProfileConfig{Dir: *profileDir, Tracer: s.Tracer})
		if err != nil {
			return err
		}
		defer prof.Wait()
		s.Profiler = prof
	}
	fmt.Printf("Fig. 6 MIRAS training: ensemble=%s scale=%s (%d iterations × %d real steps)\n",
		s.EnsembleName, *scale, s.Iterations, s.StepsPerIteration)

	// A signal stops training cleanly at the next iteration boundary,
	// after that iteration's checkpoint has been written.
	ctx, cancelSignals := signal.NotifyContext(context.Background(),
		os.Interrupt, syscall.SIGTERM)
	defer cancelSignals()
	opts := experiments.TrainOptions{
		CheckpointDir: *checkpointDir,
		Keep:          *checkpointKeep,
		Resume:        *resume,
		Stop: func() bool {
			select {
			case <-ctx.Done():
				return true
			default:
				return false
			}
		},
	}
	res, err := experiments.TrainingTraceOpts(s, opts)
	if errors.Is(err, core.ErrStopped) {
		fmt.Printf("training interrupted; state checkpointed in %s — rerun with -resume to continue\n",
			*checkpointDir)
		return nil
	}
	if err != nil {
		return err
	}
	fmt.Println("iter  |D|      model-loss  episodes  synth-return  eval-return  sigma")
	for _, st := range res.Stats {
		fmt.Printf("%4d  %-7d %-11.4f %-9d %-13.1f %-12.1f %.4f\n",
			st.Iteration, st.DatasetSize, st.ModelLoss, st.PolicyEpisodes,
			st.SyntheticReturn, st.EvalReturn, st.NoiseSigma)
	}
	first, last := res.Stats[0].EvalReturn, res.Stats[len(res.Stats)-1].EvalReturn
	if last > first {
		fmt.Printf("shape check: eval return improved %.1f → %.1f over training ✓\n", first, last)
	} else {
		fmt.Printf("shape check: eval return %.1f → %.1f (no improvement on this seed/scale)\n", first, last)
	}
	if err := res.Table.Render(os.Stdout, 10); err != nil {
		return err
	}

	csvPath := filepath.Join(*out, res.Table.Title+".csv")
	if err := res.Table.SaveCSV(csvPath); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", csvPath)

	if *savePolicy != "" {
		if err := res.Agent.Snapshot().Save(*savePolicy); err != nil {
			return err
		}
		fmt.Printf("saved trained policy snapshot to %s\n", *savePolicy)
	}
	return nil
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
