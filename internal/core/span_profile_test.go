package core

import (
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"miras/internal/cluster"
	"miras/internal/env"
	"miras/internal/obs"
	"miras/internal/sim"
	"miras/internal/workflow"
	"miras/internal/workload"
)

// newSpannedToyEnv is newToyEnv with a tracer threaded into the cluster and
// env layers and its clock pointed at the engine, the way
// experiments.BuildHarness wires a Setup.Tracer.
func newSpannedToyEnv(t *testing.T, seed int64, tracer *obs.Tracer) *env.Env {
	t.Helper()
	engine := sim.NewEngine()
	streams := sim.NewStreams(seed)
	c, err := cluster.New(cluster.Config{
		Ensemble:        workflow.Toy(),
		Engine:          engine,
		Streams:         streams,
		StartupDelayMin: 1,
		StartupDelayMax: 2,
		Tracer:          tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewGenerator(c, streams, engine, []float64{0.3})
	if err != nil {
		t.Fatal(err)
	}
	gen.Start()
	e, err := env.New(env.Config{
		Cluster: c, Generator: gen, Budget: 6, WindowSec: 10, Tracer: tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	tracer.SetClock(func() float64 { return float64(engine.Now()) })
	return e
}

// TestTrainRollbackTriggersProfile forces a divergence rollback (the
// NaN-poisoned critic from TestTrainRollbackOnDivergence) with a profile
// capturer attached and verifies the anomaly left a non-empty pprof capture
// on disk, named for the divergence_rollback trigger.
func TestTrainRollbackTriggersProfile(t *testing.T) {
	dir := t.TempDir()
	ring := obs.NewSpanRing(1 << 14)
	tracer := obs.NewTracer(obs.TracerConfig{Ring: ring, SimTime: true})
	prof, err := obs.NewProfileCapturer(obs.ProfileConfig{Dir: dir, MinInterval: time.Hour, Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}

	e := newSpannedToyEnv(t, 41, tracer)
	cfg := tinyConfig(e, 41)
	cfg.Profiler = prof
	cfg.Tracer = tracer
	var agent *Agent
	cfg.CheckpointFn = func(iter int, st *TrainState) error {
		if iter == 0 {
			agent.DDPG().Critic().Layers[0].W.Data[0] = math.NaN()
		}
		return nil
	}
	agent, err = NewAgent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := agent.Train()
	if err != nil {
		t.Fatal(err)
	}
	if !stats[1].RolledBack {
		t.Fatal("poisoned iteration not rolled back")
	}
	prof.Wait()
	if prof.Captures() != 1 {
		t.Fatalf("captures=%d, want 1", prof.Captures())
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ent := range entries {
		if strings.Contains(ent.Name(), "divergence_rollback") && strings.HasSuffix(ent.Name(), ".pprof") {
			info, err := ent.Info()
			if err != nil {
				t.Fatal(err)
			}
			if info.Size() == 0 {
				t.Fatalf("profile %s is empty", ent.Name())
			}
			found = true
		}
	}
	if !found {
		t.Fatalf("no divergence_rollback profile on disk: %v", entries)
	}

	// The rollback is on the trace: the poisoned iteration's health guard
	// says why it rolled back, and the capture is a span under the same
	// iteration.
	var guards, captures []obs.SpanRecord
	iterOf := map[string]int64{} // iteration span id -> iteration index
	for _, r := range ring.Records() {
		switch r.Name {
		case "train.health_guard":
			guards = append(guards, r)
		case "profile.capture":
			captures = append(captures, r)
		case "train.iteration":
			iterOf[r.ID] = r.Attrs["iteration"].(int64)
		}
	}
	if len(guards) != len(stats) {
		t.Fatalf("health_guard spans = %d, want %d", len(guards), len(stats))
	}
	for i, g := range guards {
		if g.Attrs["rolled_back"] != stats[i].RolledBack {
			t.Fatalf("health_guard %d rolled_back=%v, stats say %v", i, g.Attrs["rolled_back"], stats[i].RolledBack)
		}
	}
	if cause, _ := guards[1].Attrs["cause"].(string); cause == "" || iterOf[guards[1].Parent] != 1 {
		t.Fatalf("rolled-back guard span lacks its cause or iteration: %+v", guards[1])
	}
	if len(captures) != 1 || captures[0].Attrs["reason"] != "divergence_rollback" || iterOf[captures[0].Parent] != 1 {
		t.Fatalf("want one divergence_rollback profile.capture span under iteration 1, got %+v", captures)
	}
}

// TestTrainEmitsIterationSpans checks the training loop's span structure:
// phase spans parent under their iteration span, the component spans
// (model fit, env windows, cluster scaling) appear, and iteration spans
// root their traces.
func TestTrainEmitsIterationSpans(t *testing.T) {
	ring := obs.NewSpanRing(1 << 14)
	tracer := obs.NewTracer(obs.TracerConfig{Ring: ring, SimTime: true})

	e := newSpannedToyEnv(t, 43, tracer)
	cfg := tinyConfig(e, 43)
	cfg.Tracer = tracer
	agent, err := NewAgent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := agent.Train(); err != nil {
		t.Fatal(err)
	}

	recs := ring.Records()
	iters := make(map[string]bool) // iteration span ids
	byName := make(map[string]int)
	for _, r := range recs {
		byName[r.Name]++
		if r.Name == "train.iteration" {
			iters[r.ID] = true
			if r.Parent != "" {
				t.Fatalf("iteration span has parent %q", r.Parent)
			}
		}
		if r.WallStart != 0 || r.WallDur != 0 {
			t.Fatalf("sim-time span %s leaked wall fields: %+v", r.Name, r)
		}
	}
	for _, name := range []string{"train.collect", "train.fit_model", "train.improve_policy",
		"train.health_guard", "train.evaluate", "model.fit", "env.window", "cluster.scale"} {
		if byName[name] == 0 {
			t.Fatalf("no %s spans emitted (got %v)", name, byName)
		}
	}
	for _, r := range recs {
		if strings.HasPrefix(r.Name, "train.") && r.Name != "train.iteration" && !iters[r.Parent] {
			t.Fatalf("%s span parent %q is not an iteration span", r.Name, r.Parent)
		}
	}
}
