package experiments

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"miras/internal/obs"
)

// TestTrainingSpanTraceByteIdentical pins the tracing determinism
// guarantee: a seeded training run in sim-time mode emits a byte-identical
// span trace every run, at any GOMAXPROCS — including the debug-level
// DDPG update and consumer start-up spans. Wall-clock fields are stripped
// and span ids are allocated sequentially on the single training goroutine,
// so nothing in the trace depends on scheduling or real time.
func TestTrainingSpanTraceByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full training runs are slow; skipped in -short")
	}
	run := func() string {
		var buf bytes.Buffer
		s := toySetup(t)
		s.Tracer = obs.NewTracer(obs.TracerConfig{
			Recorder: obs.NewRecorder(&buf),
			SimTime:  true,
			Debug:    true,
		})
		if _, err := TrainingTrace(s); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}

	a := run()
	b := run()
	prev := runtime.GOMAXPROCS(1)
	c := run()
	runtime.GOMAXPROCS(prev)

	if a != b {
		t.Fatal("seeded span traces differ between identical runs")
	}
	if a != c {
		t.Fatal("seeded span trace differs across GOMAXPROCS")
	}
	for _, line := range strings.Split(strings.TrimSuffix(a, "\n"), "\n") {
		if !strings.Contains(line, `"msg":"span"`) {
			t.Fatalf("non-span record in the trace: %s", line)
		}
	}
	for _, name := range []string{
		`"msg":"span"`,
		`"name":"train.iteration"`,
		`"name":"train.collect"`,
		`"name":"train.fit_model"`,
		`"name":"train.improve_policy"`,
		`"name":"train.health_guard"`,
		`"name":"train.evaluate"`,
		`"name":"model.fit"`,
		`"name":"env.window"`,
		`"name":"cluster.scale"`,
		`"name":"ddpg.update"`,
		`"name":"cluster.consumer_start"`,
		`"eval_return":`,
		`"ddpg_updates":`,
		`"wip":[`,
		`"queues":[`,
		`"epoch_loss":[`,
		`"mean_q":`,
	} {
		if !strings.Contains(a, name) {
			t.Fatalf("trace missing %s", name)
		}
	}
	if strings.Contains(a, "wall_start") || strings.Contains(a, "wall_dur") {
		t.Fatal("sim-time trace leaked wall-clock fields")
	}
}
