package experiments

import (
	"strings"
	"testing"

	"miras/internal/env"
	"miras/internal/trace"
)

// microSetup shrinks QuickSetup further so every experiment driver can run
// in well under a second per test.
func microSetup(t *testing.T, ensemble string) Setup {
	t.Helper()
	s, err := QuickSetup(ensemble)
	if err != nil {
		t.Fatal(err)
	}
	s.CollectSteps = 120
	s.TestPoints = 20
	s.StepsPerIteration = 40
	s.Iterations = 2
	s.PolicyEpisodes = 6
	s.ModelEpochs = 4
	s.RLHidden = []int{12, 12}
	s.EvalSteps = 6
	s.RolloutLen = 6
	s.CompareWindows = 8
	return s
}

func TestPaperSetupValues(t *testing.T) {
	msd, err := PaperSetup("msd")
	if err != nil {
		t.Fatal(err)
	}
	// §VI-A: C=14, 30s windows, 14k samples, 1000 steps/iter, rollout 25.
	if msd.Budget != 14 || msd.WindowSec != 30 || msd.CollectSteps != 14000 ||
		msd.StepsPerIteration != 1000 || msd.RolloutLen != 25 || msd.EvalSteps != 25 {
		t.Fatalf("MSD paper setup deviates: %+v", msd)
	}
	if len(msd.ModelHidden) != 3 || msd.ModelHidden[0] != 20 {
		t.Fatalf("MSD model hidden %v, want three 20-unit layers", msd.ModelHidden)
	}
	ligo, err := PaperSetup("ligo")
	if err != nil {
		t.Fatal(err)
	}
	if ligo.Budget != 30 || ligo.CollectSteps != 37000 || ligo.StepsPerIteration != 2000 ||
		ligo.RolloutLen != 10 || ligo.EvalSteps != 100 {
		t.Fatalf("LIGO paper setup deviates: %+v", ligo)
	}
	if len(ligo.ModelHidden) != 1 || ligo.ModelHidden[0] != 20 {
		t.Fatalf("LIGO model hidden %v, want one 20-unit layer (§VI-A3 overfitting note)", ligo.ModelHidden)
	}
	if _, err := PaperSetup("nope"); err == nil {
		t.Fatal("expected error for unknown ensemble")
	}
}

func TestBuildHarnessDeterministicArrivals(t *testing.T) {
	s := microSetup(t, "msd")
	build := func() float64 {
		h, err := BuildHarness(s, 7)
		if err != nil {
			t.Fatal(err)
		}
		h.Engine.RunUntil(500)
		var total float64
		for _, v := range h.Generator.Submitted() {
			total += float64(v)
		}
		return total
	}
	if a, b := build(), build(); a != b {
		t.Fatalf("same-seed harnesses diverged: %g vs %g", a, b)
	}
}

func TestBuildHarnessUnknownEnsemble(t *testing.T) {
	if _, err := BuildHarness(Setup{EnsembleName: "nope", Budget: 5, WindowSec: 30}, 0); err == nil {
		t.Fatal("expected error")
	}
}

func TestModelAccuracyQuick(t *testing.T) {
	s := microSetup(t, "msd")
	res, err := ModelAccuracy(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.TrainPoints != s.CollectSteps {
		t.Fatalf("train points=%d, want %d", res.TrainPoints, s.CollectSteps)
	}
	if res.TestPoints != s.TestPoints {
		t.Fatalf("test points=%d, want %d", res.TestPoints, s.TestPoints)
	}
	if len(res.RewardTable.Series) != 3 || len(res.WIPTable.Series) != 3 {
		t.Fatal("Fig. 5 tables must have ground-truth/one-step/iterative series")
	}
	for _, series := range res.RewardTable.Series {
		if len(series.Values) != s.TestPoints {
			t.Fatalf("series %s has %d points", series.Name, len(series.Values))
		}
	}
	if res.OneStepRMSE < 0 || res.IterRMSE < 0 {
		t.Fatal("negative RMSE")
	}
}

func TestTrainingTraceQuick(t *testing.T) {
	s := microSetup(t, "msd")
	res, err := TrainingTrace(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats) != s.Iterations {
		t.Fatalf("stats=%d, want %d", len(res.Stats), s.Iterations)
	}
	if len(res.Table.Series) != 1 || len(res.Table.Series[0].Values) != s.Iterations {
		t.Fatal("Fig. 6 table malformed")
	}
	if res.Agent == nil {
		t.Fatal("agent not returned")
	}
}

func TestCompareRunsAllAlgorithms(t *testing.T) {
	s := microSetup(t, "msd")
	trained, err := TrainControllers(s)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Compare(s, []int{30, 20, 30}, AlgorithmNames, trained)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table.Series) != len(AlgorithmNames) {
		t.Fatalf("series=%d, want %d", len(res.Table.Series), len(AlgorithmNames))
	}
	for _, name := range AlgorithmNames {
		if _, ok := res.AUC[name]; !ok {
			t.Fatalf("missing AUC for %s", name)
		}
		if _, ok := res.TailMean[name]; !ok {
			t.Fatalf("missing tail mean for %s", name)
		}
	}
	for _, series := range res.Table.Series {
		if len(series.Values) != s.CompareWindows {
			t.Fatalf("series %s has %d windows, want %d", series.Name, len(series.Values), s.CompareWindows)
		}
		for _, v := range series.Values {
			if v < 0 {
				t.Fatalf("negative response time in %s", series.Name)
			}
		}
	}
}

func TestCompareRequiresTrainedForLearners(t *testing.T) {
	s := microSetup(t, "msd")
	if _, err := Compare(s, []int{5, 5, 5}, []string{"miras"}, nil); err == nil {
		t.Fatal("expected error for missing trained controllers")
	}
	// Non-learning algorithms work without training.
	res, err := Compare(s, []int{5, 5, 5}, []string{"stream", "heft", "monad", "static"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table.Series) != 4 {
		t.Fatal("non-learning comparison incomplete")
	}
}

func TestCompareUnknownAlgorithm(t *testing.T) {
	s := microSetup(t, "msd")
	if _, err := Compare(s, []int{5, 5, 5}, []string{"bogus"}, nil); err == nil {
		t.Fatal("expected error for unknown algorithm")
	}
}

func TestCompareAllUsesPaperBursts(t *testing.T) {
	s := microSetup(t, "msd")
	s.CompareWindows = 5
	results, err := CompareAll(s, mustTrained(t, s))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("burst scenarios=%d, want 3 (Fig. 7 panels)", len(results))
	}
	if results[1].Burst[0] != 1000 {
		t.Fatalf("burst 2 = %v, want paper's (1000,300,400)", results[1].Burst)
	}
	if !strings.HasPrefix(results[0].Table.Title, "fig7-msd") {
		t.Fatalf("panel title %q", results[0].Table.Title)
	}
}

func mustTrained(t *testing.T, s Setup) *Trained {
	t.Helper()
	trained, err := TrainControllers(s)
	if err != nil {
		t.Fatal(err)
	}
	return trained
}

func TestWindowLengthAblationQuick(t *testing.T) {
	s := microSetup(t, "msd")
	s.CompareWindows = 6
	res, err := WindowLengthAblation(s, []float64{10, 30})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.MeanDelay) != 2 {
		t.Fatalf("delays=%v", res.MeanDelay)
	}
	for _, d := range res.MeanDelay {
		if d < 0 {
			t.Fatal("negative mean delay")
		}
	}
}

func TestNoiseAblationQuick(t *testing.T) {
	s := microSetup(t, "msd")
	res, err := NoiseAblation(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table.Series) != 2 {
		t.Fatal("noise ablation needs two series")
	}
}

func TestRefinementAblationQuick(t *testing.T) {
	s := microSetup(t, "msd")
	res, err := RefinementAblation(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table.Series) != 2 {
		t.Fatal("refinement ablation needs two series")
	}
}

func TestSampleEfficiencyQuick(t *testing.T) {
	s := microSetup(t, "msd")
	trained := mustTrained(t, s)
	res, err := SampleEfficiency(s, trained, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Interactions != s.Iterations*s.StepsPerIteration {
		t.Fatalf("interactions=%d", res.Interactions)
	}
	if res.Episodes != 2 {
		t.Fatalf("episodes=%d", res.Episodes)
	}
	if _, err := SampleEfficiency(s, nil, 1); err == nil {
		t.Fatal("expected error without trained controllers")
	}
}

// evalControllerSanity drives each baseline in a real harness to confirm
// the full Controller integration stays within budget online.
func TestControllersOnlineBudgetIntegration(t *testing.T) {
	s := microSetup(t, "ligo")
	h, err := BuildHarness(s, 900)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Generator.InjectBurst([]int{10, 10, 5, 3}); err != nil {
		t.Fatal(err)
	}
	ctrl, err := controllerByName("stream", s, h.Cluster.Ensemble(), nil)
	if err != nil {
		t.Fatal(err)
	}
	results, err := env.Run(h.Env, ctrl, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 6 {
		t.Fatal("run incomplete")
	}
}

func TestDynamicLoadExperiment(t *testing.T) {
	s := microSetup(t, "msd")
	s.CompareWindows = 8
	res, err := DynamicLoad(s, []string{"stream", "heft", "monad", "hpa", "static"}, nil, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table.Series) != 5 {
		t.Fatalf("series=%d", len(res.Table.Series))
	}
	for _, name := range []string{"stream", "heft", "monad", "hpa", "static"} {
		if res.Completed[name] == 0 {
			t.Fatalf("%s completed nothing under modulated load", name)
		}
	}
	// Learning controllers require trained policies.
	if _, err := DynamicLoad(s, []string{"miras"}, nil, 0.5); err == nil {
		t.Fatal("expected error for untrained miras")
	}
}

func TestHPAAvailableInHarness(t *testing.T) {
	s := microSetup(t, "msd")
	h, err := BuildHarness(s, 901)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := controllerByName("hpa", s, h.Cluster.Ensemble(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := env.Run(h.Env, ctrl, 4); err != nil {
		t.Fatal(err)
	}
}

func TestChaosExperiment(t *testing.T) {
	s := microSetup(t, "msd")
	s.CompareWindows = 8
	res, err := Chaos(s, []string{"heft", "hpa"}, nil, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table.Series) != 2 {
		t.Fatalf("series=%d", len(res.Table.Series))
	}
	if res.Crashed["hpa"] == 0 {
		t.Fatal("no failures injected")
	}
	for _, name := range []string{"heft", "hpa"} {
		if res.Completed[name] == 0 {
			t.Fatalf("%s completed nothing under chaos", name)
		}
	}
	if _, err := Chaos(s, []string{"heft"}, nil, 0); err == nil {
		t.Fatal("expected error for non-positive kill interval")
	}
}

func TestMediumSetupScalesDown(t *testing.T) {
	p, err := PaperSetup("msd")
	if err != nil {
		t.Fatal(err)
	}
	m, err := MediumSetup("msd")
	if err != nil {
		t.Fatal(err)
	}
	if m.CollectSteps >= p.CollectSteps || m.StepsPerIteration >= p.StepsPerIteration {
		t.Fatal("medium setup not smaller than paper setup")
	}
	if m.Budget != p.Budget || m.WindowSec != p.WindowSec {
		t.Fatal("medium setup must not change the control problem itself")
	}
	if _, err := MediumSetup("nope"); err == nil {
		t.Fatal("expected error for unknown ensemble")
	}
	if _, err := QuickSetup("nope"); err == nil {
		t.Fatal("expected error for unknown ensemble")
	}
}

func TestTrainBurstHook(t *testing.T) {
	s := microSetup(t, "msd")
	s.TrainBurstMax = []int{40, 40, 40}
	h, err := BuildHarness(s, 950)
	if err != nil {
		t.Fatal(err)
	}
	hook := trainBurstHook(s, h)
	if hook == nil {
		t.Fatal("hook should exist when TrainBurstMax set")
	}
	for i := 0; i < 30; i++ {
		hook()
	}
	var total uint64
	for _, v := range h.Generator.Submitted() {
		total += v
	}
	if total == 0 {
		t.Fatal("30 hook invocations injected nothing (expected ~15 bursts)")
	}
	// Disabled when no maxima are configured.
	s.TrainBurstMax = nil
	if trainBurstHook(s, h) != nil {
		t.Fatal("hook should be nil without TrainBurstMax")
	}
}

func TestEvalBurstHookDeterministic(t *testing.T) {
	s := microSetup(t, "msd")
	s.TrainBurstMax = []int{40, 20, 20}
	h, err := BuildHarness(s, 951)
	if err != nil {
		t.Fatal(err)
	}
	hook := evalBurstHook(s, h)
	if hook == nil {
		t.Fatal("eval hook should exist")
	}
	before := h.Cluster.InFlight()
	hook()
	// Fixed burst of half the maxima: 20+10+10 = 40 requests.
	if got := h.Cluster.InFlight() - before; got != 40 {
		t.Fatalf("eval burst injected %d, want 40", got)
	}
	hook()
	if got := h.Cluster.InFlight() - before; got != 80 {
		t.Fatalf("eval burst not deterministic: %d", got)
	}
	s.TrainBurstMax = nil
	if evalBurstHook(s, h) != nil {
		t.Fatal("eval hook should be nil without TrainBurstMax")
	}
}

func TestCompareBestGuardsAgainstStarvation(t *testing.T) {
	res := &ScenarioResult{
		Completed:        map[string]int{"good": 100, "starving": 2},
		OverallMeanDelay: map[string]float64{"good": 50, "starving": 1},
	}
	if got := res.Best(); got != "good" {
		t.Fatalf("Best=%q rewarded a starving policy", got)
	}
	// Among comparable completion counts, lowest delay wins.
	res = &ScenarioResult{
		Completed:        map[string]int{"a": 100, "b": 95},
		OverallMeanDelay: map[string]float64{"a": 50, "b": 30},
	}
	if got := res.Best(); got != "b" {
		t.Fatalf("Best=%q, want b", got)
	}
}

func TestBudgetSweep(t *testing.T) {
	s := microSetup(t, "msd")
	s.CompareWindows = 6
	res, err := BudgetSweep(s, []string{"heft", "monad"}, []int{6, 14, 24})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table.Series) != 2 || len(res.Table.X) != 3 {
		t.Fatalf("table shape wrong: %d series, %d x", len(res.Table.Series), len(res.Table.X))
	}
	// More budget must not complete fewer requests (same arrivals).
	for _, name := range []string{"heft", "monad"} {
		done := res.Completed[name]
		if done[2] < done[0] {
			t.Fatalf("%s: completions fell with budget: %v", name, done)
		}
	}
	if _, err := BudgetSweep(s, []string{"heft"}, nil); err == nil {
		t.Fatal("expected error for empty budgets")
	}
	if _, err := BudgetSweep(s, []string{"heft"}, []int{0}); err == nil {
		t.Fatal("expected error for zero budget")
	}
}

func TestMultiSeedTable(t *testing.T) {
	s := microSetup(t, "msd")
	s.CompareWindows = 4
	run := func(s Setup) (*trace.Table, error) {
		res, err := Compare(s, []int{10, 10, 10}, []string{"heft", "monad"}, nil)
		if err != nil {
			return nil, err
		}
		return &res.Table, nil
	}
	agg, err := MultiSeedTable(s, []int64{1, 2, 3}, run)
	if err != nil {
		t.Fatal(err)
	}
	// 2 base series × (mean, lo, hi) = 6.
	if len(agg.Series) != 6 {
		t.Fatalf("aggregated series=%d, want 6", len(agg.Series))
	}
	// Bands bracket the mean.
	for i := 0; i < len(agg.Series); i += 3 {
		mean, lo, hi := agg.Series[i], agg.Series[i+1], agg.Series[i+2]
		for k := range mean.Values {
			if lo.Values[k] > mean.Values[k] || hi.Values[k] < mean.Values[k] {
				t.Fatalf("band does not bracket mean at %d", k)
			}
		}
	}
	if _, err := MultiSeedTable(s, nil, run); err == nil {
		t.Fatal("expected error for no seeds")
	}
}

func TestComparePerWorkflowTables(t *testing.T) {
	s := microSetup(t, "msd")
	s.CompareWindows = 6
	res, err := Compare(s, []int{20, 10, 20}, []string{"heft"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	byWF := res.WorkflowTables["heft"]
	if byWF == nil {
		t.Fatal("per-workflow table missing")
	}
	if len(byWF.Series) != 3 {
		t.Fatalf("workflow series=%d, want 3 (MSD types)", len(byWF.Series))
	}
	if byWF.Series[0].Name != "Type1" {
		t.Fatalf("series name %q", byWF.Series[0].Name)
	}
	for _, series := range byWF.Series {
		if len(series.Values) != 6 {
			t.Fatalf("workflow series length %d", len(series.Values))
		}
	}
}

func TestEnsembleModelAblation(t *testing.T) {
	s := microSetup(t, "msd")
	res, err := EnsembleModelAblation(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Members != 2 {
		t.Fatalf("members=%d", res.Members)
	}
	for name, v := range map[string]float64{
		"single one-step":   res.SingleOneStep,
		"single iter":       res.SingleIter,
		"ensemble one-step": res.EnsembleOneStep,
		"ensemble iter":     res.EnsembleIter,
	} {
		if v < 0 {
			t.Fatalf("%s RMSE negative", name)
		}
	}
	if res.MeanDisagreementTest < 0 {
		t.Fatal("negative disagreement")
	}
	if _, err := EnsembleModelAblation(s, 1); err == nil {
		t.Fatal("expected error for single-member ensemble")
	}
}

// TestCompareDeterministic: the whole comparison pipeline must reproduce
// identical numbers for identical setups — the repository's headline
// reproducibility guarantee.
func TestCompareDeterministic(t *testing.T) {
	s := microSetup(t, "msd")
	s.CompareWindows = 6
	run := func() *CompareResult {
		res, err := Compare(s, []int{20, 10, 20}, []string{"stream", "monad"}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	for _, name := range []string{"stream", "monad"} {
		if a.Completed[name] != b.Completed[name] {
			t.Fatalf("%s completions diverged: %d vs %d", name, a.Completed[name], b.Completed[name])
		}
		if a.OverallMeanDelay[name] != b.OverallMeanDelay[name] {
			t.Fatalf("%s delays diverged", name)
		}
	}
	for si := range a.Table.Series {
		for k := range a.Table.Series[si].Values {
			if a.Table.Series[si].Values[k] != b.Table.Series[si].Values[k] {
				t.Fatalf("series %s diverged at window %d", a.Table.Series[si].Name, k)
			}
		}
	}
}
