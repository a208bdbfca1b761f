package experiments

import (
	"fmt"

	"miras/internal/baselines"
	"miras/internal/env"
	"miras/internal/metrics"
	"miras/internal/rl"
	"miras/internal/workflow"
	"miras/internal/workload"
)

// AlgorithmNames lists the five algorithms of Figs. 7–8 in plot order,
// using the paper's labels ("stream" = DRS, "rl" = model-free DDPG).
var AlgorithmNames = []string{"miras", "stream", "heft", "monad", "rl"}

// Trained bundles the two learning-based controllers, trained once and
// reused across burst scenarios exactly as the paper does.
type Trained struct {
	// MIRAS is the trained model-based controller.
	MIRAS env.Controller
	// ModelFree is the DDPG baseline trained with the same number of real
	// interactions.
	ModelFree env.Controller
	// TrainingStats carries the MIRAS Fig. 6 trace from the shared
	// training run.
	TrainingStats *TrainingResult
}

// TrainControllers trains MIRAS (producing the Fig. 6 trace as a
// by-product) and the model-free DDPG baseline at the equal interaction
// budget the paper mandates ("we train DDPG models using the same number
// of interactions with MIRAS").
func TrainControllers(s Setup) (*Trained, error) {
	tr, err := TrainingTrace(s)
	if err != nil {
		return nil, fmt.Errorf("experiments: MIRAS training: %w", err)
	}
	// Same interaction budget: iterations × steps per iteration.
	totalSteps := s.Iterations * s.StepsPerIteration
	h, err := BuildHarness(s, 200)
	if err != nil {
		return nil, err
	}
	mf, err := baselines.TrainModelFree(h.Env, rl.Config{
		Hidden:      s.RLHidden,
		RewardScale: rewardScale(s),
		Seed:        s.Seed + 31,
	}, totalSteps, s.ResetEvery, trainBurstHook(s, h))
	if err != nil {
		return nil, fmt.Errorf("experiments: model-free training: %w", err)
	}
	return &Trained{MIRAS: tr.Agent.Controller(), ModelFree: mf, TrainingStats: tr}, nil
}

// controllerByName instantiates the non-learning controllers fresh per run
// (they are cheap and stateful), and returns the shared trained ones.
func controllerByName(name string, s Setup, ens *workflow.Ensemble, trained *Trained) (env.Controller, error) {
	switch name {
	case "miras":
		if trained == nil || trained.MIRAS == nil {
			return nil, fmt.Errorf("experiments: %q requires trained controllers", name)
		}
		return trained.MIRAS, nil
	case "rl":
		if trained == nil || trained.ModelFree == nil {
			return nil, fmt.Errorf("experiments: %q requires trained controllers", name)
		}
		return trained.ModelFree, nil
	case "stream":
		return baselines.NewDRS(s.Budget, s.WindowSec), nil
	case "heft":
		return baselines.NewHEFT(ens, s.Budget), nil
	case "monad":
		return baselines.NewMONAD(s.Budget, s.WindowSec), nil
	case "static":
		return baselines.NewStatic(ens.NumTasks(), s.Budget), nil
	case "hpa":
		return baselines.NewHPA(s.Budget), nil
	default:
		return nil, fmt.Errorf("experiments: unknown algorithm %q", name)
	}
}

// CompareResult is one Figs. 7/8 panel: per-algorithm response-time traces
// under one burst scenario, with summary statistics.
type CompareResult struct {
	ScenarioResult
	// Burst is the injected request counts per workflow type.
	Burst []int
	// AUC sums each algorithm's response-time trace (lower = faster
	// recovery overall, *given comparable completion counts*).
	AUC map[string]float64
	// TailMean averages the last quarter of each trace (the paper's
	// "long-term returns" comparison).
	TailMean map[string]float64
}

// Compare runs one burst scenario: every algorithm gets a fresh environment
// built from the same seed (identical background arrival trace), the burst
// is injected at time zero, and the controller runs for s.CompareWindows
// windows. The recorded series is the mean response time of workflow
// requests completed in each window — the y-axis of Figs. 7–8.
func Compare(s Setup, burst []int, algorithms []string, trained *Trained) (*CompareResult, error) {
	r, err := runScenario(s, scenario{offset: 300, burst: burst},
		fmt.Sprintf("compare-%s", s.EnsembleName), algorithms, trained)
	if err != nil {
		return nil, err
	}
	res := &CompareResult{
		ScenarioResult: *r,
		Burst:          append([]int(nil), burst...),
		AUC:            make(map[string]float64),
		TailMean:       make(map[string]float64),
	}
	for _, series := range r.Table.Series {
		res.AUC[series.Name] = metrics.AUC(series.Values)
		res.TailMean[series.Name] = metrics.TailMean(series.Values, 0.25)
	}
	return res, nil
}

// CompareAll runs every paper burst scenario for the ensemble (Fig. 7 has
// three MSD panels, Fig. 8 three LIGO panels) with the five paper
// algorithms.
func CompareAll(s Setup, trained *Trained) ([]*CompareResult, error) {
	bursts, err := workload.PaperBursts(s.EnsembleName)
	if err != nil {
		return nil, err
	}
	out := make([]*CompareResult, 0, len(bursts))
	for i, burst := range bursts {
		r, err := Compare(s, burst, AlgorithmNames, trained)
		if err != nil {
			return nil, err
		}
		r.Table.Title = fmt.Sprintf("fig%s-%s-burst%d", figNumber(s.EnsembleName), s.EnsembleName, i+1)
		out = append(out, r)
	}
	return out, nil
}

func figNumber(ensemble string) string {
	if ensemble == "msd" {
		return "7"
	}
	return "8"
}
