package env

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"miras/internal/cluster"
	"miras/internal/obs"
	"miras/internal/sim"
	"miras/internal/workflow"
)

// traceLines decodes every JSONL span record the tracer wrote.
func traceLines(t *testing.T, buf *bytes.Buffer) []map[string]any {
	t.Helper()
	var out []map[string]any
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		out = append(out, m)
	}
	return out
}

// spansNamed returns the decoded span records called name, in end order.
func spansNamed(lines []map[string]any, name string) []map[string]any {
	var out []map[string]any
	for _, m := range lines {
		if m["msg"] == "span" && m["name"] == name {
			out = append(out, m)
		}
	}
	return out
}

// TestStepEmitsWindowEvents checks the env and cluster trace stream: every
// accepted Step produces one cluster.scale and one env.window span (plus
// debug consumer start-up spans), and a rejected action produces an
// env.constraint_violation span without advancing time.
func TestStepEmitsWindowEvents(t *testing.T) {
	var buf bytes.Buffer
	engine := sim.NewEngine()
	tracer := obs.NewTracer(obs.TracerConfig{
		Recorder: obs.NewRecorder(&buf),
		SimTime:  true,
		Debug:    true,
		Clock:    func() float64 { return engine.Now() },
	})
	streams := sim.NewStreams(11)
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
	e, err := New(Config{Cluster: c, Budget: 6, WindowSec: 30, Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		c.Submit(0)
	}
	first, err := e.Step([]int{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Step([]int{3, 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Step([]int{9, 9}); err == nil {
		t.Fatal("over-budget action accepted")
	}

	lines := traceLines(t, &buf)
	windows := spansNamed(lines, "env.window")
	if len(windows) != 2 {
		t.Fatalf("env.window spans = %d, want 2:\n%v", len(windows), lines)
	}
	scales := spansNamed(lines, "cluster.scale")
	if len(scales) != 2 {
		t.Fatalf("cluster.scale spans = %d, want 2", len(scales))
	}
	starts := spansNamed(lines, "cluster.consumer_start")
	if len(starts) == 0 {
		t.Fatal("no cluster.consumer_start spans despite scale-ups")
	}
	// Windows are longer than the start-up delay, so every start came up:
	// its span carries the new pool size and lasts exactly the delay.
	for _, m := range starts {
		if _, ok := m["available"]; !ok || m["cancelled"] != nil {
			t.Fatalf("consumer start did not come up: %v", m)
		}
		if got, want := m["t1"].(float64)-m["t0"].(float64), m["startup_delay"].(float64); math.Abs(got-want) > 1e-9 {
			t.Fatalf("consumer_start span lasts %v, want its startup_delay %v", got, want)
		}
		if _, ok := m["service"]; !ok {
			t.Fatalf("consumer_start span missing service: %v", m)
		}
	}

	// The first window span carries the (s, a, r) triple and the delay
	// observable. Its "window" is the 0-based index of the window it ran.
	w := windows[0]
	if w["window"] != 0.0 || w["t0"] != 0.0 || w["t1"] != 30.0 {
		t.Fatalf("first env.window window=%v t0=%v t1=%v, want 0, 0, 30", w["window"], w["t0"], w["t1"])
	}
	a, ok := w["action"].([]any)
	if !ok || len(a) != 2 || a[0] != 2.0 || a[1] != 2.0 {
		t.Fatalf("first env.window action=%v, want [2 2]", w["action"])
	}
	if w["reward"] != first.Reward {
		t.Fatalf("env.window reward=%v, want %v", w["reward"], first.Reward)
	}
	wip, ok := w["wip"].([]any)
	if !ok || len(wip) != 2 || wip[0] != first.Stats.WIP[0] || wip[1] != first.Stats.WIP[1] {
		t.Fatalf("env.window wip=%v, want %v", w["wip"], first.Stats.WIP)
	}
	if w["mean_delay"] != first.Stats.MeanDelay() || w["completed"] != float64(len(first.Stats.Completions)) {
		t.Fatalf("env.window mean_delay=%v completed=%v, want %v, %d",
			w["mean_delay"], w["completed"], first.Stats.MeanDelay(), len(first.Stats.Completions))
	}

	// The scale span must carry the decision and the queue depths it saw,
	// parented under its window.
	sc := scales[0]
	q, ok := sc["queues"].([]any)
	if !ok || len(q) != 2 {
		t.Fatalf("cluster.scale queues=%v, want 2 entries", sc["queues"])
	}
	if v, ok := q[0].(float64); !ok || v <= 0 {
		t.Fatalf("first scale saw queue[0]=%v, want the submitted backlog", q[0])
	}
	if tg, ok := sc["target"].([]any); !ok || len(tg) != 2 || tg[0] != 2.0 || tg[1] != 2.0 {
		t.Fatalf("cluster.scale target=%v, want [2 2]", sc["target"])
	}
	if av, ok := sc["available"].([]any); !ok || len(av) != 2 {
		t.Fatalf("cluster.scale available=%v, want 2 entries", sc["available"])
	}
	if _, ok := sc["inflight"]; !ok || sc["parent"] != w["id"] || sc["t0"] != sc["t1"] {
		t.Fatalf("cluster.scale span wrong: %v (window %v)", sc, w["id"])
	}

	viol := spansNamed(lines, "env.constraint_violation")
	if len(viol) != 1 {
		t.Fatalf("env.constraint_violation spans = %d, want 1", len(viol))
	}
	v := viol[0]
	if va, ok := v["action"].([]any); !ok || len(va) != 2 || va[0] != 9.0 {
		t.Fatalf("violation action=%v, want [9 9]", v["action"])
	}
	if v["total"] != 18.0 || v["budget"] != 6.0 || v["window"] != 2.0 || v["t0"] != 60.0 || v["t1"] != 60.0 {
		t.Fatalf("violation span wrong: %v", v)
	}
}

// TestStepUntraced ensures an uninstrumented env behaves identically to a
// traced one: tracing observes the simulation and never perturbs it.
func TestStepUntraced(t *testing.T) {
	run := func(tracer *obs.Tracer) []StepResult {
		engine := sim.NewEngine()
		tracer.SetClock(func() float64 { return engine.Now() })
		c, err := cluster.New(cluster.Config{
			Ensemble: workflow.Toy(), Engine: engine, Streams: sim.NewStreams(12), Tracer: tracer,
		})
		if err != nil {
			t.Fatal(err)
		}
		e, err := New(Config{Cluster: c, Budget: 4, WindowSec: 30, Tracer: tracer})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 6; i++ {
			c.Submit(0)
		}
		var out []StepResult
		for _, m := range [][]int{{2, 2}, {3, 1}, {1, 1}} {
			r, err := e.Step(m)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, r)
		}
		if _, err := e.Step([]int{9, 9}); err == nil {
			t.Fatal("over-budget action accepted")
		}
		return out
	}
	plain := run(nil)
	traced := run(obs.NewTracer(obs.TracerConfig{Ring: obs.NewSpanRing(256), Debug: true}))
	if !reflect.DeepEqual(plain, traced) {
		t.Fatalf("tracing changed the simulation:\nplain:  %+v\ntraced: %+v", plain, traced)
	}
}
