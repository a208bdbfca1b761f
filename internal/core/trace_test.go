package core

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"

	"miras/internal/obs"
)

// TestTrainEmitsTelemetry runs a tiny Algorithm 2 loop with a debug
// tracer attached and checks the full span chain arrives in the JSONL
// sink: per-iteration spans carrying IterationStats, per-fit model spans
// carrying every epoch's loss, per-minibatch DDPG spans, and env windows.
func TestTrainEmitsTelemetry(t *testing.T) {
	var buf bytes.Buffer
	tracer := obs.NewTracer(obs.TracerConfig{Recorder: obs.NewRecorder(&buf), SimTime: true, Debug: true})

	e := newSpannedToyEnv(t, 9, tracer)
	cfg := tinyConfig(e, 9)
	cfg.Tracer = tracer
	a, err := NewAgent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := a.Train()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != cfg.Iterations {
		t.Fatalf("got %d iterations, want %d", len(stats), cfg.Iterations)
	}

	byName := map[string][]map[string]any{}
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		if m["msg"] != "span" {
			t.Fatalf("non-span record in the trace: %v", m)
		}
		name, _ := m["name"].(string)
		byName[name] = append(byName[name], m)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	iterations := byName["train.iteration"]
	if len(iterations) != cfg.Iterations {
		t.Fatalf("train.iteration spans = %d, want %d", len(iterations), cfg.Iterations)
	}
	// Every iteration fits the model once, for ModelEpochs epochs.
	fits := byName["model.fit"]
	if len(fits) != cfg.Iterations {
		t.Fatalf("model.fit spans = %d, want %d", len(fits), cfg.Iterations)
	}
	for i, m := range fits {
		losses, ok := m["epoch_loss"].([]any)
		if !ok || len(losses) != cfg.ModelEpochs {
			t.Fatalf("model.fit %d epoch_loss=%v, want %d losses", i, m["epoch_loss"], cfg.ModelEpochs)
		}
		if losses[len(losses)-1] != m["final_loss"] || losses[len(losses)-1] != stats[i].ModelLoss {
			t.Fatalf("model.fit %d last epoch loss %v, final_loss %v, stats %g",
				i, losses[len(losses)-1], m["final_loss"], stats[i].ModelLoss)
		}
		if m["dataset"] != float64(stats[i].DatasetSize) || m["epochs"] != float64(cfg.ModelEpochs) {
			t.Fatalf("model.fit %d dataset/epochs wrong: %v", i, m)
		}
	}
	updates := byName["ddpg.update"]
	if len(updates) == 0 {
		t.Fatal("no ddpg.update spans despite policy optimisation running")
	}
	if uint64(len(updates)) != a.DDPG().Updates() {
		t.Fatalf("ddpg.update spans = %d, agent ran %d updates", len(updates), a.DDPG().Updates())
	}
	for _, k := range []string{"update", "critic_loss", "mean_q", "replay", "sigma"} {
		if _, ok := updates[0][k]; !ok {
			t.Fatalf("ddpg.update span missing %q: %v", k, updates[0])
		}
	}
	if updates[0]["level"] != "DEBUG" {
		t.Fatalf("ddpg.update level %v, want DEBUG", updates[0]["level"])
	}
	// Real-environment interaction must be visible as window spans.
	if len(byName["env.window"]) == 0 {
		t.Fatal("no env.window spans despite real collection and evaluation")
	}

	// Iteration spans mirror the returned IterationStats.
	for i, m := range iterations {
		st := stats[i]
		if m["iteration"] != float64(st.Iteration) || m["dataset"] != float64(st.DatasetSize) ||
			m["model_loss"] != st.ModelLoss || m["policy_episodes"] != float64(st.PolicyEpisodes) ||
			m["synthetic_return"] != st.SyntheticReturn || m["eval_return"] != st.EvalReturn ||
			m["noise_sigma"] != st.NoiseSigma || m["rolled_back"] != st.RolledBack {
			t.Fatalf("iteration span %d = %v, stats say %+v", i, m, st)
		}
	}
	// ddpg_updates is the running update count at the end of each iteration.
	last := iterations[len(iterations)-1]
	if last["ddpg_updates"] != float64(a.DDPG().Updates()) {
		t.Fatalf("last iteration ddpg_updates=%v, agent ran %d", last["ddpg_updates"], a.DDPG().Updates())
	}
	if first := iterations[0]["ddpg_updates"].(float64); first <= 0 || first > last["ddpg_updates"].(float64) {
		t.Fatalf("first iteration ddpg_updates=%v, want in (0, %v]", first, last["ddpg_updates"])
	}
}
