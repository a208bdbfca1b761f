// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (§VI) plus the DESIGN.md ablations, and micro-benchmarks for
// the hot substrates. The figure benchmarks run the quick-scale presets so
// `go test -bench=.` finishes in minutes; the cmd/ tools run the same
// drivers at medium or paper scale.
package miras_test

import (
	"math/rand"
	"testing"

	"miras/internal/cluster"
	"miras/internal/envmodel"
	"miras/internal/experiments"
	"miras/internal/mat"
	"miras/internal/nn"
	"miras/internal/queueing"
	"miras/internal/rl"
	"miras/internal/sim"
	"miras/internal/workflow"
)

func quickSetup(b *testing.B, ensemble string) experiments.Setup {
	b.Helper()
	s, err := experiments.QuickSetup(ensemble)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// --- Fig. 5: predictive-model accuracy (two ensembles). ---

func benchmarkFig5(b *testing.B, ensemble string) {
	s := quickSetup(b, ensemble)
	for i := 0; i < b.N; i++ {
		s.Seed = int64(i + 1)
		res, err := experiments.ModelAccuracy(s)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.OneStepRMSE, "one-step-RMSE")
		b.ReportMetric(res.IterRMSE, "iter-RMSE")
	}
}

func BenchmarkFig5ModelAccuracyMSD(b *testing.B)  { benchmarkFig5(b, "msd") }
func BenchmarkFig5ModelAccuracyLIGO(b *testing.B) { benchmarkFig5(b, "ligo") }

// --- Fig. 6: MIRAS training traces (two ensembles). ---

func benchmarkFig6(b *testing.B, ensemble string) {
	s := quickSetup(b, ensemble)
	for i := 0; i < b.N; i++ {
		s.Seed = int64(i + 1)
		res, err := experiments.TrainingTrace(s)
		if err != nil {
			b.Fatal(err)
		}
		last := res.Stats[len(res.Stats)-1]
		b.ReportMetric(last.EvalReturn, "final-eval-return")
		b.ReportMetric(last.ModelLoss, "final-model-loss")
	}
}

func BenchmarkFig6TrainingMSD(b *testing.B)  { benchmarkFig6(b, "msd") }
func BenchmarkFig6TrainingLIGO(b *testing.B) { benchmarkFig6(b, "ligo") }

// --- Figs. 7/8: burst comparisons (three panels each). ---

func benchmarkCompare(b *testing.B, ensemble string) {
	s := quickSetup(b, ensemble)
	for i := 0; i < b.N; i++ {
		s.Seed = int64(i + 1)
		trained, err := experiments.TrainControllers(s)
		if err != nil {
			b.Fatal(err)
		}
		results, err := experiments.CompareAll(s, trained)
		if err != nil {
			b.Fatal(err)
		}
		if len(results) != 3 {
			b.Fatalf("expected 3 burst panels, got %d", len(results))
		}
		b.ReportMetric(results[0].OverallMeanDelay["miras"], "miras-burst1-delay-s")
		b.ReportMetric(float64(results[0].Completed["miras"]), "miras-burst1-completed")
	}
}

func BenchmarkFig7CompareMSD(b *testing.B)  { benchmarkCompare(b, "msd") }
func BenchmarkFig8CompareLIGO(b *testing.B) { benchmarkCompare(b, "ligo") }

// --- Ablations. ---

func BenchmarkAblationWindowLength(b *testing.B) {
	s := quickSetup(b, "msd")
	s.CompareWindows = 10
	for i := 0; i < b.N; i++ {
		res, err := experiments.WindowLengthAblation(s, []float64{5, 15, 30})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MeanDelay[len(res.MeanDelay)-1], "delay-at-30s")
	}
}

func BenchmarkAblationNoise(b *testing.B) {
	s := quickSetup(b, "msd")
	for i := 0; i < b.N; i++ {
		s.Seed = int64(i + 1)
		res, err := experiments.NoiseAblation(s)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.FinalParam, "param-noise-return")
		b.ReportMetric(res.FinalAction, "action-noise-return")
	}
}

func BenchmarkAblationRefinement(b *testing.B) {
	s := quickSetup(b, "msd")
	for i := 0; i < b.N; i++ {
		s.Seed = int64(i + 1)
		res, err := experiments.RefinementAblation(s)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.FinalRefined, "refined-return")
		b.ReportMetric(res.FinalRaw, "raw-return")
	}
}

func BenchmarkAblationSampleEfficiency(b *testing.B) {
	s := quickSetup(b, "msd")
	for i := 0; i < b.N; i++ {
		s.Seed = int64(i + 1)
		trained, err := experiments.TrainControllers(s)
		if err != nil {
			b.Fatal(err)
		}
		res, err := experiments.SampleEfficiency(s, trained, 2)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MIRASReturn, "miras-return")
		b.ReportMetric(res.ModelFreeReturn, "model-free-return")
	}
}

// --- Micro-benchmarks for the substrates. ---

func BenchmarkNNForward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	net := nn.NewNetwork(nn.Config{
		Sizes: []int{13, 256, 256, 256, 4}, Hidden: nn.Tanh{}, Output: nn.Softmax{}, AuxLayer: -1,
	}, rng)
	cache := nn.NewCache(net)
	x := make([]float64, 13)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.ForwardCache(cache, x, nil)
	}
}

func BenchmarkNNBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	net := nn.NewNetwork(nn.Config{
		Sizes: []int{13, 256, 256, 256, 4}, Hidden: nn.Tanh{}, Output: nn.Softmax{}, AuxLayer: -1,
	}, rng)
	cache := nn.NewCache(net)
	grads := nn.NewGrads(net)
	x := make([]float64, 13)
	dOut := make([]float64, 4)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	dOut[0] = 1
	net.ForwardCache(cache, x, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Backward(cache, dOut, grads)
	}
}

// BenchmarkMatMulBlocked times the blocked GEMM on a minibatch-shaped
// product (batch×in times (out×in)ᵀ — the forward-pass hot loop).
func BenchmarkMatMulBlocked(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	const batch, in, out = 64, 256, 256
	a := mat.New(batch, in)
	w := mat.New(out, in)
	dst := mat.New(batch, out)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	for i := range w.Data {
		w.Data[i] = rng.NormFloat64()
	}
	b.SetBytes(int64(8 * batch * in * out))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst.MulTransTo(a, w)
	}
}

func batchBenchNet(b *testing.B) (*nn.Network, *nn.BatchCache, *mat.Matrix) {
	b.Helper()
	rng := rand.New(rand.NewSource(9))
	net := nn.NewNetwork(nn.Config{
		Sizes: []int{13, 256, 256, 256, 4}, Hidden: nn.Tanh{}, Output: nn.Softmax{}, AuxLayer: -1,
	}, rng)
	const batch = 64
	cache := nn.NewBatchCache(net, batch)
	x := mat.New(batch, 13)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	return net, cache, x
}

func BenchmarkNNForwardBatch(b *testing.B) {
	net, cache, x := batchBenchNet(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.ForwardBatch(cache, x, nil)
	}
}

func BenchmarkNNBackwardBatch(b *testing.B) {
	net, cache, x := batchBenchNet(b)
	grads := nn.NewGrads(net)
	dOut := mat.New(cache.Batch(), 4)
	for i := 0; i < cache.Batch(); i++ {
		dOut.Row(i)[0] = 1
	}
	net.ForwardBatch(cache, x, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.BackwardBatch(cache, dOut, grads)
	}
}

func BenchmarkEngineEventThroughput(b *testing.B) {
	engine := sim.NewEngine()
	var tick func()
	t := 0.0
	tick = func() {
		t += 1
		engine.Schedule(1, tick)
	}
	engine.Schedule(1, tick)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine.Step()
	}
}

func BenchmarkClusterWindow(b *testing.B) {
	engine := sim.NewEngine()
	streams := sim.NewStreams(3)
	c, err := cluster.New(cluster.Config{
		Ensemble: workflow.NewLIGO(),
		Engine:   engine,
		Streams:  streams,
	})
	if err != nil {
		b.Fatal(err)
	}
	rng := streams.Stream("bench")
	target := make([]int, 9)
	for j := range target {
		target[j] = 3
	}
	if err := c.SetConsumers(target); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < 5; k++ {
			c.Submit(rng.Intn(4))
		}
		c.AdvanceTo(c.Now() + 30)
		_ = c.WIP()
	}
}

func BenchmarkEnvModelPredict(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	d := envmodel.NewDataset(9, 9)
	s := make([]float64, 9)
	a := make([]float64, 9)
	for i := 0; i < 500; i++ {
		for j := range s {
			s[j] = rng.Float64() * 50
			a[j] = rng.Float64() / 9
		}
		d.Add(s, a, s)
	}
	m, err := envmodel.New(envmodel.Config{StateDim: 9, ActionDim: 9, Hidden: []int{20}, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := m.Fit(d, 1); err != nil {
		b.Fatal(err)
	}
	ref, err := envmodel.NewRefiner(m, d, 20, rng)
	if err != nil {
		b.Fatal(err)
	}
	out := make([]float64, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ref.PredictTo(out, s, a)
	}
}

// BenchmarkEnvModelFit times one epoch of performance-model training at the
// paper-scale network size (§VI-A3: three hidden layers of 20) — the
// steady-state minibatch loop behind Fig. 5 and every Algorithm 2 iteration.
func BenchmarkEnvModelFit(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	d := envmodel.NewDataset(4, 4)
	s := make([]float64, 4)
	a := make([]float64, 4)
	for i := 0; i < 512; i++ {
		for j := range s {
			s[j] = rng.Float64() * 50
			a[j] = rng.Float64() / 4
		}
		d.Add(s, a, s)
	}
	m, err := envmodel.New(envmodel.Config{StateDim: 4, ActionDim: 4, Hidden: []int{20, 20, 20}, Seed: 11})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Fit(d, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDDPGUpdate(b *testing.B) {
	agent, err := rl.NewDDPG(rl.Config{
		StateDim: 4, ActionDim: 4, Hidden: []int{64, 64, 64},
		BatchSize: 64, Seed: 6,
	})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 256; i++ {
		s := []float64{rng.Float64() * 50, rng.Float64() * 50, rng.Float64() * 50, rng.Float64() * 50}
		agent.Observe(rl.Experience{State: s, Action: agent.Act(s), Next: s, Reward: -rng.Float64() * 100})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agent.Update()
	}
}

// --- Extension experiments (beyond the paper's figures). ---

func BenchmarkExtensionDynamicLoad(b *testing.B) {
	s := quickSetup(b, "msd")
	s.CompareWindows = 10
	for i := 0; i < b.N; i++ {
		res, err := experiments.DynamicLoad(s, []string{"stream", "heft", "monad", "hpa"}, nil, 0.5)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Completed["heft"]), "heft-completed")
	}
}

func BenchmarkExtensionChaos(b *testing.B) {
	s := quickSetup(b, "msd")
	s.CompareWindows = 10
	for i := 0; i < b.N; i++ {
		res, err := experiments.Chaos(s, []string{"heft", "hpa"}, nil, 30)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Crashed["hpa"]), "failures-injected")
	}
}

func BenchmarkClusterFailureInjection(b *testing.B) {
	engine := sim.NewEngine()
	c, err := cluster.New(cluster.Config{
		Ensemble:         workflow.NewMSD(),
		Engine:           engine,
		Streams:          sim.NewStreams(8),
		StartupDelayMin:  1e-6,
		StartupDelayMax:  2e-6,
		InitialConsumers: []int{4, 4, 3, 3},
	})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		c.Submit(i % 3)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.InjectFailure(i % 4); err != nil {
			b.Fatal(err)
		}
		c.AdvanceTo(c.Now() + 0.01)
	}
}

func BenchmarkQueueingExpectedWIP(b *testing.B) {
	e := workflow.NewLIGO()
	rates := []float64{0.03, 0.02, 0.015, 0.015}
	consumers := []int{4, 4, 4, 3, 3, 3, 3, 3, 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := queueing.ExpectedWIP(e, rates, consumers); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtensionEnsembleModel(b *testing.B) {
	s := quickSetup(b, "msd")
	for i := 0; i < b.N; i++ {
		s.Seed = int64(i + 1)
		res, err := experiments.EnsembleModelAblation(s, 3)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.SingleIter, "single-iter-RMSE")
		b.ReportMetric(res.EnsembleIter, "ensemble-iter-RMSE")
	}
}

func BenchmarkExtensionBudgetSweep(b *testing.B) {
	s := quickSetup(b, "msd")
	s.CompareWindows = 10
	for i := 0; i < b.N; i++ {
		res, err := experiments.BudgetSweep(s, []string{"heft", "monad"}, []int{7, 14, 28})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Table.Series[0].Values[1], "heft-delay-at-C")
	}
}
