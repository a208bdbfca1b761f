package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func decodeLines(t *testing.T, buf *bytes.Buffer) []map[string]any {
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

// TestRecorderJSONL pins the sink's line format: one "span" record with
// every attribute kind a span can carry, and no wall-clock time key.
func TestRecorderJSONL(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(TracerConfig{Recorder: NewRecorder(&buf), SimTime: true})
	action := []int{4, 4, 3, 3}
	wip := []float64{0, 1.5}
	sp := tr.Start("env.window").
		T0(0).
		Int("window", 1).
		Ints("action", action).
		F64s("wip", wip).
		F64("reward", -3.5).
		Str("ensemble", "msd").
		Bool("burst", true).
		Uint("updates", 7)
	// Slice attributes are copied: mutating the caller's buffers before End
	// must not leak into the record.
	action[0], wip[1] = 99, 99
	sp.EndT(30)
	lines := decodeLines(t, &buf)
	if len(lines) != 1 {
		t.Fatalf("got %d lines, want 1", len(lines))
	}
	m := lines[0]
	if m["msg"] != "span" || m["name"] != "env.window" || m["level"] != "INFO" {
		t.Fatalf("msg/name/level wrong: %v", m)
	}
	if _, hasTime := m["time"]; hasTime {
		t.Fatal("wall-clock time leaked into the trace; replays would not be deterministic")
	}
	if m["t1"] != 30.0 || m["reward"] != -3.5 || m["window"] != 1.0 || m["updates"] != 7.0 ||
		m["ensemble"] != "msd" || m["burst"] != true {
		t.Fatalf("scalar attrs wrong: %v", m)
	}
	if a, ok := m["action"].([]any); !ok || len(a) != 4 || a[0] != 4.0 {
		t.Fatalf("action attr wrong: %v", m["action"])
	}
	if w, ok := m["wip"].([]any); !ok || len(w) != 2 || w[1] != 1.5 {
		t.Fatalf("wip attr wrong: %v", m["wip"])
	}
}

// TestRecorderLevelFiltering pins the single level gate: without
// TracerConfig.Debug, debug spans (and their children) never reach the
// sink; with it, they arrive at level DEBUG.
func TestRecorderLevelFiltering(t *testing.T) {
	for _, debug := range []bool{false, true} {
		var buf bytes.Buffer
		tr := NewTracer(TracerConfig{Recorder: NewRecorder(&buf), Debug: debug})
		noisy := tr.StartDebug("noisy").F64("x", 1)
		noisy.Child("noisy.child").End()
		noisy.End()
		tr.Start("kept").End()
		lines := decodeLines(t, &buf)
		if !debug {
			if len(lines) != 1 || lines[0]["name"] != "kept" {
				t.Fatalf("Debug=false: want only the info span, got %v", lines)
			}
			continue
		}
		if len(lines) != 3 {
			t.Fatalf("Debug=true: got %d spans, want 3: %v", len(lines), lines)
		}
		for i, lvl := range []string{"DEBUG", "DEBUG", "INFO"} {
			if lines[i]["level"] != lvl {
				t.Fatalf("span %v level %v, want %s", lines[i]["name"], lines[i]["level"], lvl)
			}
		}
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	if err := r.Close(); err != nil {
		t.Fatalf("nil Close: %v", err)
	}
	// A tracer without a sink still feeds its ring.
	ring := NewSpanRing(4)
	tr := NewTracer(TracerConfig{Ring: ring})
	tr.Start("x").Ints("b", []int{1}).F64s("c", []float64{2}).End()
	if err := tr.Close(); err != nil {
		t.Fatalf("sinkless tracer Close: %v", err)
	}
	if ring.Len() != 1 {
		t.Fatalf("ring holds %d spans, want 1", ring.Len())
	}
}

func TestRecorderConcurrentEmit(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(TracerConfig{Recorder: NewRecorder(&buf), Debug: true})
	const workers, per = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tr.StartDebug("tick").Int("worker", id).Int("i", i).End()
			}
		}(w)
	}
	wg.Wait()
	lines := decodeLines(t, &buf) // every line must parse: no interleaving
	if len(lines) != workers*per {
		t.Fatalf("got %d lines, want %d", len(lines), workers*per)
	}
}

func TestFileRecorder(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	r, err := fileRecorder(path)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracer(TracerConfig{Recorder: r, Debug: true})
	tr.Start("a").Int("n", 1).End()
	tr.StartDebug("b").End()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(string(data), "\n"); got != 2 {
		t.Fatalf("file has %d lines, want 2:\n%s", got, data)
	}
	if _, err := fileRecorder(filepath.Join(path, "not-a-dir", "x")); err == nil {
		t.Fatal("unwritable path accepted")
	}
}

// TestOpenTracerLevels is the CLI contract behind -trace-out/-log-level:
// only debug and info produce a trace; every other level is rejected
// instead of silently writing an empty file.
func TestOpenTracerLevels(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		level   string
		ok      bool
		debugOn bool
	}{
		{"debug", true, true},
		{"info", true, false},
		{"INFO", true, false},
		{"warn", false, false},
		{"error", false, false},
		{"", false, false},
		{"loud", false, false},
	} {
		t.Run(tc.level, func(t *testing.T) {
			path := filepath.Join(dir, "t-"+tc.level+".jsonl")
			tr, err := OpenTracer(path, tc.level, TracerConfig{SimTime: true})
			if !tc.ok {
				if err == nil || tr != nil {
					t.Fatalf("level %q: tracer=%v err=%v, want an error", tc.level, tr, err)
				}
				if _, statErr := os.Stat(path); statErr == nil {
					t.Fatalf("level %q: rejected level still created %s", tc.level, path)
				}
				return
			}
			if err != nil || tr == nil {
				t.Fatalf("level %q: tracer=%v err=%v", tc.level, tr, err)
			}
			tr.Start("i").End()
			tr.StartDebug("d").End()
			if err := tr.Close(); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			want := 1
			if tc.debugOn {
				want = 2
			}
			if got := strings.Count(string(data), `"msg":"span"`); got != want {
				t.Fatalf("level %q wrote %d spans, want %d:\n%s", tc.level, got, want, data)
			}
		})
	}

	// No path and no ring: nothing to export to, so tracing is disabled.
	if tr, err := OpenTracer("", "debug", TracerConfig{}); err != nil || tr != nil {
		t.Fatalf("empty path: tracer=%v err=%v, want nil/nil", tr, err)
	}
	// No path but a ring: the tracer exists (the server's /v1/debug/traces).
	tr, err := OpenTracer("", "info", TracerConfig{Ring: NewSpanRing(1)})
	if err != nil || tr == nil || tr.Ring() == nil {
		t.Fatalf("ring-only: tracer=%v err=%v", tr, err)
	}
}

// BenchmarkRecorderEmit measures the enabled span export path writing to
// memory.
func BenchmarkRecorderEmit(b *testing.B) {
	var buf bytes.Buffer
	tr := NewTracer(TracerConfig{Recorder: NewRecorder(&buf), SimTime: true, Debug: true})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		tr.StartDebug("ddpg.update").Uint("update", uint64(i)).F64("critic_loss", 0.5).End()
	}
}
