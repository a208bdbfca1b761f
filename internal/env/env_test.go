package env

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"miras/internal/cluster"
	"miras/internal/sim"
	"miras/internal/workflow"
)

// harness bundles an env over the toy ensemble with a fast startup delay.
func newTestEnv(t *testing.T, e *workflow.Ensemble, budget int, seed int64) *Env {
	t.Helper()
	engine := sim.NewEngine()
	streams := sim.NewStreams(seed)
	c, err := cluster.New(cluster.Config{
		Ensemble:        e,
		Engine:          engine,
		Streams:         streams,
		StartupDelayMin: 1e-9,
		StartupDelayMax: 2e-9,
	})
	if err != nil {
		t.Fatal(err)
	}
	en, err := New(Config{Cluster: c, Budget: budget, WindowSec: 30})
	if err != nil {
		t.Fatal(err)
	}
	return en
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Budget: 10}); err == nil {
		t.Fatal("expected error without cluster")
	}
	e := newTestEnv(t, workflow.Toy(), 4, 1) // valid baseline
	_ = e
	engine := sim.NewEngine()
	c, _ := cluster.New(cluster.Config{
		Ensemble: workflow.Toy(), Engine: engine, Streams: sim.NewStreams(2),
	})
	if _, err := New(Config{Cluster: c}); err == nil {
		t.Fatal("expected error for missing budget")
	}
	if _, err := New(Config{Cluster: c, Budget: 4, WindowSec: -1}); err == nil {
		t.Fatal("expected error for negative window")
	}
}

func TestStepAdvancesOneWindow(t *testing.T) {
	e := newTestEnv(t, workflow.Toy(), 4, 3)
	before := e.Cluster().Now()
	res, err := e.Step([]int{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Cluster().Now() - before; got != 30 {
		t.Fatalf("advanced %gs, want 30", got)
	}
	if e.Window() != 1 {
		t.Fatalf("Window=%d, want 1", e.Window())
	}
	if len(res.State) != 2 {
		t.Fatalf("state dim %d, want 2", len(res.State))
	}
}

func TestRewardIsOneMinusTotalWIP(t *testing.T) {
	e := newTestEnv(t, workflow.Toy(), 4, 4)
	// Starve stage 1 and park 10 requests on it.
	for i := 0; i < 10; i++ {
		e.Cluster().Submit(0)
	}
	res, err := e.Step([]int{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, w := range res.State {
		sum += w
	}
	if math.Abs(res.Reward-(1-sum)) > 1e-12 {
		t.Fatalf("reward %g != 1 - ΣWIP %g (Eq. 1)", res.Reward, 1-sum)
	}
	if sum != 10 {
		t.Fatalf("starved WIP total %g, want 10", sum)
	}
}

func TestStepRejectsBudgetViolation(t *testing.T) {
	e := newTestEnv(t, workflow.Toy(), 4, 5)
	if _, err := e.Step([]int{3, 2}); err == nil {
		t.Fatal("expected error for budget violation")
	}
	if e.ConstraintViolations() != 1 {
		t.Fatalf("violations=%d, want 1", e.ConstraintViolations())
	}
	if e.Window() != 0 {
		t.Fatal("failed step advanced the window")
	}
	if _, err := e.Step([]int{-1, 1}); err == nil {
		t.Fatal("expected error for negative allocation")
	}
	if _, err := e.Step([]int{1}); err == nil {
		t.Fatal("expected error for wrong arity")
	}
}

func TestResetClearsWIP(t *testing.T) {
	e := newTestEnv(t, workflow.Toy(), 4, 6)
	for i := 0; i < 5; i++ {
		e.Cluster().Submit(0)
	}
	state := e.Reset()
	for _, w := range state {
		if w != 0 {
			t.Fatalf("Reset left WIP: %v", state)
		}
	}
}

func TestStatsRates(t *testing.T) {
	e := newTestEnv(t, workflow.Toy(), 8, 7)
	// 6 submissions in the window: arrival rate at stage 1 = 6/30.
	for i := 0; i < 6; i++ {
		e.Cluster().Submit(0)
	}
	res, err := e.Step([]int{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Stats.ArrivalRate[0]; math.Abs(got-0.2) > 1e-9 {
		t.Fatalf("ArrivalRate[0]=%g, want 0.2", got)
	}
	if res.Stats.CompletionRate[0] <= 0 {
		t.Fatal("no completions measured at stage 1")
	}
	if res.Stats.ServiceMean[0] <= 0 {
		t.Fatal("service mean not populated")
	}
	if res.Stats.Utilization[0] <= 0 || res.Stats.Utilization[0] > 1.5 {
		t.Fatalf("utilization %g implausible", res.Stats.Utilization[0])
	}
	// All six toy workflows should complete within one 30s window with 4
	// consumers per stage.
	if len(res.Stats.Completions) != 6 {
		t.Fatalf("completions=%d, want 6", len(res.Stats.Completions))
	}
	if res.Stats.MeanDelay() <= 0 {
		t.Fatal("MeanDelay not positive")
	}
	byWF := res.Stats.MeanDelayByWorkflow(1)
	if byWF[0] != res.Stats.MeanDelay() {
		t.Fatal("per-workflow delay mismatch for single type")
	}
}

func TestServiceMeanFallsBackToNominal(t *testing.T) {
	e := newTestEnv(t, workflow.Toy(), 4, 8)
	res, err := e.Step([]int{2, 2}) // nothing submitted, nothing completes
	if err != nil {
		t.Fatal(err)
	}
	want := workflow.Toy().Tasks[0].MeanServiceSec
	if res.Stats.ServiceMean[0] != want {
		t.Fatalf("ServiceMean fallback=%g, want nominal %g", res.Stats.ServiceMean[0], want)
	}
}

// staticController always returns the same allocation.
type staticController struct{ m []int }

func (s staticController) Name() string            { return "static" }
func (s staticController) Decide(StepResult) []int { return s.m }
func (s staticController) Reset()                  {}

func TestRunDrivesController(t *testing.T) {
	e := newTestEnv(t, workflow.Toy(), 4, 9)
	results, err := Run(e, staticController{m: []int{2, 2}}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 {
		t.Fatalf("results=%d, want 5", len(results))
	}
	if e.Window() != 5 {
		t.Fatalf("windows=%d, want 5", e.Window())
	}
}

func TestRunWindowCount(t *testing.T) {
	for _, tc := range []struct {
		windows int
		wantErr bool
	}{
		{windows: -1, wantErr: true},
		{windows: 0},
	} {
		e := newTestEnv(t, workflow.Toy(), 4, 11)
		results, err := Run(e, staticController{m: []int{2, 2}}, tc.windows)
		if (err != nil) != tc.wantErr {
			t.Fatalf("windows=%d: err=%v, wantErr=%v", tc.windows, err, tc.wantErr)
		}
		if len(results) != 0 || e.Window() != 0 {
			t.Fatalf("windows=%d: %d results, %d windows stepped; want none", tc.windows, len(results), e.Window())
		}
	}
}

func TestRunPropagatesControllerError(t *testing.T) {
	e := newTestEnv(t, workflow.Toy(), 4, 10)
	_, err := Run(e, staticController{m: []int{9, 9}}, 3)
	if err == nil {
		t.Fatal("expected budget error from Run")
	}
}

func TestSimplexToAllocationFloor(t *testing.T) {
	m := SimplexToAllocation([]float64{0.5, 0.3, 0.2}, 10)
	if m[0] != 5 || m[1] != 3 || m[2] != 2 {
		t.Fatalf("allocation=%v", m)
	}
	// Floor must never exceed budget even with rounding-hostile simplex.
	m = SimplexToAllocation([]float64{1.0 / 3, 1.0 / 3, 1.0 / 3}, 14)
	if TotalAllocation(m) > 14 {
		t.Fatalf("floor rule exceeded budget: %v", m)
	}
}

// Property: for any simplex and budget, ⌊C·a⌋ satisfies the constraint —
// the paper's §IV-D argument for the softmax+floor construction.
func TestSimplexToAllocationAlwaysWithinBudget(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dim := 1 + rng.Intn(12)
		budget := 1 + rng.Intn(100)
		a := RandomSimplex(dim, rng)
		m := SimplexToAllocation(a, budget)
		return ValidAllocation(m, budget)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAllocationToSimplexRoundTrip(t *testing.T) {
	a := AllocationToSimplex([]int{5, 3, 2}, 10)
	want := []float64{0.5, 0.3, 0.2}
	for i := range want {
		if math.Abs(a[i]-want[i]) > 1e-12 {
			t.Fatalf("simplex=%v", a)
		}
	}
}

func TestProportionalAllocationExactBudget(t *testing.T) {
	m := ProportionalAllocation([]float64{1, 1, 2}, 14)
	if TotalAllocation(m) != 14 {
		t.Fatalf("proportional total=%d, want 14", TotalAllocation(m))
	}
	if m[2] <= m[0] {
		t.Fatalf("weight-2 type got %d ≤ weight-1 type %d", m[2], m[0])
	}
}

func TestProportionalAllocationZeroWeights(t *testing.T) {
	m := ProportionalAllocation([]float64{0, 0, 0}, 9)
	if TotalAllocation(m) != 9 {
		t.Fatalf("zero-weight total=%d, want 9", TotalAllocation(m))
	}
	for _, v := range m {
		if v != 3 {
			t.Fatalf("zero-weight split=%v, want even", m)
		}
	}
}

// Property: proportional allocation spends the whole budget and never goes
// negative, for arbitrary weights.
func TestProportionalAllocationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dim := 1 + rng.Intn(10)
		budget := rng.Intn(60)
		w := make([]float64, dim)
		for i := range w {
			w[i] = rng.Float64() * 10
			if rng.Float64() < 0.2 {
				w[i] = 0
			}
		}
		m := ProportionalAllocation(w, budget)
		return TotalAllocation(m) == budget && ValidAllocation(m, budget)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestUniformAllocation(t *testing.T) {
	m := UniformAllocation(4, 14)
	if TotalAllocation(m) != 14 {
		t.Fatalf("uniform total=%d", TotalAllocation(m))
	}
	if m[0] != 4 || m[3] != 3 {
		t.Fatalf("uniform=%v, want remainder to low indices", m)
	}
}

func TestClampToBudget(t *testing.T) {
	m := ClampToBudget([]int{10, 10, 10}, 15)
	if TotalAllocation(m) != 15 {
		t.Fatalf("clamped total=%d, want 15", TotalAllocation(m))
	}
	// In-budget passes through unchanged.
	orig := []int{1, 2, 3}
	if got := ClampToBudget(orig, 10); &got[0] != &orig[0] {
		t.Fatal("in-budget allocation should be returned as-is")
	}
}

func TestRandomSimplexIsSimplex(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 100; i++ {
		a := RandomSimplex(5, rng)
		var sum float64
		for _, v := range a {
			if v < 0 {
				t.Fatalf("negative simplex entry: %v", a)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("simplex sums to %g", sum)
		}
	}
}

func TestDelayPercentile(t *testing.T) {
	s := Stats{}
	if s.DelayPercentile(95) != 0 {
		t.Fatal("empty window percentile should be 0")
	}
	s.Completions = []cluster.Completion{
		{ArrivedAt: 0, CompletedAt: 10},
		{ArrivedAt: 0, CompletedAt: 20},
		{ArrivedAt: 0, CompletedAt: 30},
	}
	if got := s.DelayPercentile(50); got != 20 {
		t.Fatalf("p50=%g, want 20", got)
	}
	if got := s.DelayPercentile(100); got != 30 {
		t.Fatalf("p100=%g, want 30", got)
	}
	if got := s.DelayPercentile(0); got != 10 {
		t.Fatalf("p0=%g, want 10", got)
	}
}

func TestUtilizationCanExceedOneAfterScaleDown(t *testing.T) {
	e := newTestEnv(t, workflow.Toy(), 8, 30)
	// Saturate stage 1 with 4 consumers, then scale to 1 mid-flight: the
	// 4 running tasks keep a single-consumer pool "over-utilised".
	if _, err := e.Step([]int{4, 4}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		e.Cluster().Submit(0)
	}
	res, err := e.Step([]int{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Utilization[0] <= 0 {
		t.Fatal("utilization should be positive under load")
	}
}
