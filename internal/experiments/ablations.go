package experiments

import (
	"fmt"

	"miras/internal/core"
	"miras/internal/env"
	"miras/internal/envmodel"
	"miras/internal/mat"
	"miras/internal/metrics"
	"miras/internal/rl"
	"miras/internal/trace"
	"miras/internal/workflow"
	"miras/internal/workload"
)

// WindowLengthResult reports the §VI-A2 window-length trade-off: per
// candidate window length, the mean response time of a burst run under two
// fixed reactive controllers. Short windows make rate estimates noisy and
// churn containers against the 5–10 s start-up delay (DRS, whose EWMA rate
// estimator flaps, suffers most); long windows react too slowly.
type WindowLengthResult struct {
	// WindowSec lists the candidate lengths (the paper tested 5, 15, 30).
	WindowSec []float64
	// MeanDelay is the burst run's mean response time per candidate under
	// MONAD (kept for backward compatibility with the Table's first
	// series).
	MeanDelay []float64
	// MeanDelayDRS is the same under DRS.
	MeanDelayDRS []float64
	// Table renders the pairs.
	Table trace.Table
}

// WindowLengthAblation reproduces the §VI-A2 trade-off study.
func WindowLengthAblation(s Setup, windows []float64) (*WindowLengthResult, error) {
	if len(windows) == 0 {
		windows = []float64{5, 15, 30}
	}
	bursts, err := paperOrFallbackBursts(s)
	if err != nil {
		return nil, err
	}
	res := &WindowLengthResult{WindowSec: append([]float64(nil), windows...)}
	for _, w := range windows {
		sw := s
		sw.WindowSec = w
		// Equal total virtual time across window lengths.
		sw.CompareWindows = int(float64(s.CompareWindows) * s.WindowSec / w)
		r, err := runScenario(sw, scenario{offset: 300, burst: bursts[0]},
			fmt.Sprintf("window-%g", w), []string{"monad", "stream"}, nil)
		if err != nil {
			return nil, err
		}
		res.MeanDelay = append(res.MeanDelay, metrics.Mean(r.Table.Series[0].Values))
		res.MeanDelayDRS = append(res.MeanDelayDRS, metrics.Mean(r.Table.Series[1].Values))
	}
	res.Table = trace.Table{
		Title:  fmt.Sprintf("ablation-window-%s", s.EnsembleName),
		XLabel: "window length (s)",
		YLabel: "mean response time (s)",
		X:      res.WindowSec,
	}
	res.Table.AddSeries("monad", res.MeanDelay)
	res.Table.AddSeries("stream", res.MeanDelayDRS)
	return res, nil
}

// NoiseAblationResult compares parameter-space vs action-space exploration
// (§IV-D): training traces for each and the final evaluation returns.
type NoiseAblationResult struct {
	Table trace.Table
	// FinalParam and FinalAction are the last-iteration eval returns.
	FinalParam, FinalAction float64
	// BestParam and BestAction are the best-iteration eval returns — the
	// policy each variant would deploy (Train keeps the best), and a much
	// less noisy comparison statistic than the final iteration.
	BestParam, BestAction float64
	// RawViolationRate is the fraction of action-space-noise exploration
	// samples that violated the simplex constraint before projection —
	// the paper's §IV-D "invalid exploration" rate. Parameter noise has no
	// such failure mode: its rate is 0 by construction.
	RawViolationRate float64
}

// NoiseAblation trains two MIRAS agents differing only in exploration
// mechanism and reports their Fig. 6-style traces.
func NoiseAblation(s Setup) (*NoiseAblationResult, error) {
	run := func(kind rl.ExplorationKind, offset int64) ([]float64, *core.Agent, error) {
		h, err := BuildHarness(s, 400+offset)
		if err != nil {
			return nil, nil, err
		}
		cfg := mirasConfig(s, h)
		cfg.RL.Exploration = kind
		agent, err := core.NewAgent(cfg)
		if err != nil {
			return nil, nil, err
		}
		stats, err := agent.Train()
		if err != nil {
			return nil, nil, err
		}
		out := make([]float64, len(stats))
		for i, st := range stats {
			out[i] = st.EvalReturn
		}
		return out, agent, nil
	}
	param, _, err := run(rl.ParamSpaceNoise, 0)
	if err != nil {
		return nil, fmt.Errorf("experiments: param-noise run: %w", err)
	}
	action, actionAgent, err := run(rl.ActionSpaceNoise, 0) // same harness seed: paired comparison
	if err != nil {
		return nil, fmt.Errorf("experiments: action-noise run: %w", err)
	}
	res := &NoiseAblationResult{
		FinalParam:  param[len(param)-1],
		FinalAction: action[len(action)-1],
		BestParam:   metrics.Max(param),
		BestAction:  metrics.Max(action),
	}
	if violations, total := actionAgent.DDPG().RawNoiseViolations(); total > 0 {
		res.RawViolationRate = float64(violations) / float64(total)
	}
	res.Table = trace.Table{
		Title:  fmt.Sprintf("ablation-noise-%s", s.EnsembleName),
		XLabel: "iteration",
		YLabel: "aggregated eval reward",
	}
	res.Table.AddSeries("param-noise", param)
	res.Table.AddSeries("action-noise", action)
	return res, nil
}

// RefinementAblationResult compares training with and without the
// Lend–Giveback model refinement (§IV-C2).
type RefinementAblationResult struct {
	Table trace.Table
	// FinalRefined and FinalRaw are the last-iteration eval returns.
	FinalRefined, FinalRaw float64
	// BestRefined and BestRaw are the best-iteration eval returns (the
	// deployed policies; see NoiseAblationResult).
	BestRefined, BestRaw float64
}

// RefinementAblation trains MIRAS with the refined model and with the raw
// model and reports both traces.
func RefinementAblation(s Setup) (*RefinementAblationResult, error) {
	run := func(refine bool) ([]float64, error) {
		h, err := BuildHarness(s, 500)
		if err != nil {
			return nil, err
		}
		cfg := mirasConfig(s, h)
		var agent *core.Agent
		if refine {
			agent, err = core.NewAgent(cfg)
		} else {
			agent, err = core.NewAgentNoRefine(cfg)
		}
		if err != nil {
			return nil, err
		}
		stats, err := agent.Train()
		if err != nil {
			return nil, err
		}
		out := make([]float64, len(stats))
		for i, st := range stats {
			out[i] = st.EvalReturn
		}
		return out, nil
	}
	refined, err := run(true)
	if err != nil {
		return nil, fmt.Errorf("experiments: refined run: %w", err)
	}
	raw, err := run(false)
	if err != nil {
		return nil, fmt.Errorf("experiments: raw run: %w", err)
	}
	res := &RefinementAblationResult{
		FinalRefined: refined[len(refined)-1],
		FinalRaw:     raw[len(raw)-1],
		BestRefined:  metrics.Max(refined),
		BestRaw:      metrics.Max(raw),
	}
	res.Table = trace.Table{
		Title:  fmt.Sprintf("ablation-refine-%s", s.EnsembleName),
		XLabel: "iteration",
		YLabel: "aggregated eval reward",
	}
	res.Table.AddSeries("refined", refined)
	res.Table.AddSeries("raw-model", raw)
	return res, nil
}

// SampleEfficiencyResult compares MIRAS and model-free DDPG evaluation
// returns at the same real-interaction budget — the paper's core
// sample-complexity claim.
type SampleEfficiencyResult struct {
	// Interactions is the shared real-environment interaction budget.
	Interactions int
	// MIRASReturn and ModelFreeReturn are mean evaluation returns over
	// Episodes evaluation episodes.
	MIRASReturn, ModelFreeReturn float64
	// Episodes is the number of evaluation episodes averaged.
	Episodes int
}

// SampleEfficiency evaluates the two trained controllers on fresh
// environments for several episodes each.
func SampleEfficiency(s Setup, trained *Trained, episodes int) (*SampleEfficiencyResult, error) {
	if trained == nil {
		return nil, fmt.Errorf("experiments: trained controllers required")
	}
	if episodes <= 0 {
		episodes = 3
	}
	evalReturn := func(ctrl env.Controller, offset int64) (float64, error) {
		var total float64
		for ep := 0; ep < episodes; ep++ {
			h, err := BuildHarness(s, 600+offset+int64(ep))
			if err != nil {
				return 0, err
			}
			ctrl.Reset()
			results, err := env.Run(h.Env, ctrl, s.EvalSteps)
			if err != nil {
				return 0, err
			}
			for _, r := range results {
				total += r.Reward
			}
		}
		return total / float64(episodes), nil
	}
	mirasRet, err := evalReturn(trained.MIRAS, 0)
	if err != nil {
		return nil, err
	}
	mfRet, err := evalReturn(trained.ModelFree, 0) // same harness seeds: paired
	if err != nil {
		return nil, err
	}
	return &SampleEfficiencyResult{
		Interactions:    s.Iterations * s.StepsPerIteration,
		MIRASReturn:     mirasRet,
		ModelFreeReturn: mfRet,
		Episodes:        episodes,
	}, nil
}

// paperOrFallbackBursts returns the paper bursts for msd/ligo, or a small
// synthetic burst for other ensembles (tests).
func paperOrFallbackBursts(s Setup) ([][]int, error) {
	if s.EnsembleName == "msd" || s.EnsembleName == "ligo" {
		return workload.PaperBursts(s.EnsembleName)
	}
	ens, ok := workflow.ByName(s.EnsembleName)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown ensemble %q", s.EnsembleName)
	}
	burst := make([]int, ens.NumWorkflows())
	for i := range burst {
		burst[i] = 20
	}
	return [][]int{burst}, nil
}

// DynamicLoad runs the named controllers for s.CompareWindows windows under
// sine-modulated background arrival rates with the given relative depth, no
// bursts — the "dynamic workloads" stressor beyond one-shot bursts.
func DynamicLoad(s Setup, algorithms []string, trained *Trained, depth float64) (*ScenarioResult, error) {
	sine := func(h *Harness) error {
		mod, err := workload.NewModulator(h.Generator, h.Engine, workload.Sine,
			10*s.WindowSec, depth, s.WindowSec/3)
		if err != nil {
			return err
		}
		mod.Start()
		return nil
	}
	return runScenario(s, scenario{offset: 700, arm: sine},
		fmt.Sprintf("dynamic-load-%s", s.EnsembleName), algorithms, trained)
}

// EnsembleModelResult compares the single environment model against a
// K-member ensemble (the Nagandi-style variance-reduction extension) on
// the Fig. 5 protocol: one-step and iterative RMSE on a held-out trace.
type EnsembleModelResult struct {
	// Members is the ensemble size compared against 1.
	Members int
	// SingleOneStep/SingleIter are the single model's RMSEs.
	SingleOneStep, SingleIter float64
	// EnsembleOneStep/EnsembleIter are the ensemble's RMSEs.
	EnsembleOneStep, EnsembleIter float64
	// MeanDisagreementTest is the ensemble's mean prediction disagreement
	// over the test trace (epistemic-uncertainty signal).
	MeanDisagreementTest float64
}

// EnsembleModelAblation trains both predictors on the same dataset and
// evaluates both on the same held-out trace.
func EnsembleModelAblation(s Setup, members int) (*EnsembleModelResult, error) {
	if members < 2 {
		return nil, fmt.Errorf("experiments: ensemble needs ≥2 members, got %d", members)
	}
	h, err := BuildHarness(s, 1100)
	if err != nil {
		return nil, err
	}
	rng := h.Streams.Stream("experiments/ensemble-ablation")
	dataset := envmodel.NewDataset(h.Env.StateDim(), h.Env.StateDim())
	hook := trainBurstHook(s, h)
	if err := collectRandom(h.Env, dataset, rng, s.CollectSteps, s.ResetEvery, hook); err != nil {
		return nil, err
	}
	cfg := envmodel.Config{
		StateDim:  h.Env.StateDim(),
		ActionDim: h.Env.StateDim(),
		Hidden:    s.ModelHidden,
		Seed:      s.Seed + 41,
	}
	single, err := envmodel.New(cfg)
	if err != nil {
		return nil, err
	}
	if _, err := single.Fit(dataset, s.ModelEpochs); err != nil {
		return nil, err
	}
	ens, err := envmodel.NewEnsemble(cfg, members)
	if err != nil {
		return nil, err
	}
	if _, err := ens.Fit(dataset, s.ModelEpochs); err != nil {
		return nil, err
	}

	states, actions, err := collectTestTrace(h.Env, rng, s.TestPoints, s.ActionHold)
	if err != nil {
		return nil, err
	}
	evalRMSE := func(p envmodel.Predictor) (oneStep, iter float64, err error) {
		n := len(actions)
		truth := make([]float64, n)
		one := make([]float64, n)
		pred := make([]float64, h.Env.StateDim())
		for k := 0; k < n; k++ {
			truth[k] = mat.VecMean(states[k+1])
			p.PredictTo(pred, states[k], actions[k])
			clampNonNegative(pred)
			one[k] = mat.VecMean(pred)
		}
		traj := envmodel.Rollout(p, states[0], actions)
		iterSeries := make([]float64, n)
		for k, st := range traj {
			iterSeries[k] = mat.VecMean(st)
		}
		if oneStep, err = metrics.RMSE(truth, one); err != nil {
			return 0, 0, err
		}
		if iter, err = metrics.RMSE(truth, iterSeries); err != nil {
			return 0, 0, err
		}
		return oneStep, iter, nil
	}
	res := &EnsembleModelResult{Members: members}
	if res.SingleOneStep, res.SingleIter, err = evalRMSE(single); err != nil {
		return nil, err
	}
	if res.EnsembleOneStep, res.EnsembleIter, err = evalRMSE(ens); err != nil {
		return nil, err
	}
	var disagreement float64
	for k := range actions {
		disagreement += ens.Disagreement(states[k], actions[k])
	}
	res.MeanDisagreementTest = disagreement / float64(len(actions))
	return res, nil
}
