// Command miras-modeleval reproduces Fig. 5 of the paper: the accuracy of
// the learnt environment model on MSD and LIGO, comparing ground truth
// against fixed-input (one-step) and iterative predictions.
//
// Usage:
//
//	miras-modeleval -ensemble msd -scale quick -out results/
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"miras/internal/experiments"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "miras-modeleval:", err)
		os.Exit(1)
	}
}

func run() error {
	ensemble := flag.String("ensemble", "msd", "workflow ensemble: msd or ligo")
	scale := flag.String("scale", "quick", "experiment scale: quick, medium, or paper")
	out := flag.String("out", "results", "output directory for CSV files")
	seed := flag.Int64("seed", 0, "override experiment seed (0 keeps the preset)")
	flag.Parse()

	s, err := experiments.ScaleSetup(*scale, *ensemble)
	if err != nil {
		return err
	}
	if *seed != 0 {
		s.Seed = *seed
	}
	fmt.Printf("Fig. 5 model accuracy: ensemble=%s scale=%s (%d training samples)\n",
		s.EnsembleName, *scale, s.CollectSteps)

	res, err := experiments.ModelAccuracy(s)
	if err != nil {
		return err
	}
	fmt.Printf("trained on %d transitions, tested on a %d-step trace\n", res.TrainPoints, res.TestPoints)
	fmt.Printf("final training loss (normalised): %.4f\n", res.FinalTrainLoss)
	fmt.Printf("reward-series RMSE: one-step=%.3f iterative=%.3f\n", res.OneStepRMSE, res.IterRMSE)
	if res.IterRMSE >= res.OneStepRMSE {
		fmt.Println("shape check: iterative divergence ≥ one-step divergence, as in the paper ✓")
	} else {
		fmt.Println("shape check: iterative tracked tighter than one-step on this seed (paper expects the opposite)")
	}

	if err := res.RewardTable.Render(os.Stdout, 10); err != nil {
		return err
	}
	if err := res.WIPTable.Render(os.Stdout, 10); err != nil {
		return err
	}

	rewardPath := filepath.Join(*out, res.RewardTable.Title+".csv")
	if err := res.RewardTable.SaveCSV(rewardPath); err != nil {
		return err
	}
	wipPath := filepath.Join(*out, res.WIPTable.Title+".csv")
	if err := res.WIPTable.SaveCSV(wipPath); err != nil {
		return err
	}
	fmt.Printf("wrote %s and %s\n", rewardPath, wipPath)
	return nil
}
