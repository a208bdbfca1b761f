package cluster

import (
	"math"
	"testing"

	"miras/internal/obs"
	"miras/internal/sim"
	"miras/internal/workflow"
)

// newTracedCluster builds a toy cluster whose debug tracer reads the
// engine's virtual clock and keeps every span in a ring.
func newTracedCluster(t *testing.T) (*Cluster, *sim.Engine, *obs.SpanRing) {
	t.Helper()
	engine := sim.NewEngine()
	ring := obs.NewSpanRing(64)
	c, err := New(Config{
		Ensemble:         workflow.Toy(),
		Engine:           engine,
		Streams:          sim.NewStreams(7),
		StartupDelayMin:  5,
		StartupDelayMax:  10,
		InitialConsumers: []int{1, 1},
		Tracer: obs.NewTracer(obs.TracerConfig{
			Ring: ring, Debug: true, Clock: func() float64 { return engine.Now() },
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, engine, ring
}

func spansNamed(ring *obs.SpanRing, name string) []obs.SpanRecord {
	var out []obs.SpanRecord
	for _, r := range ring.Records() {
		if r.Name == name {
			out = append(out, r)
		}
	}
	return out
}

// TestConsumerStartSpans pins the consumer lifecycle span: it opens when a
// container start is requested and closes when the consumer comes up, so
// its length is the realised start-up delay; a start abandoned by a
// scale-down or a Clear closes early with cancelled=true.
func TestConsumerStartSpans(t *testing.T) {
	c, engine, ring := newTracedCluster(t)
	if err := c.SetConsumers([]int{3, 1}); err != nil { // two starts for service 0
		t.Fatal(err)
	}
	engine.RunUntil(1)
	if err := c.SetConsumers([]int{2, 1}); err != nil { // cancels the newest
		t.Fatal(err)
	}
	engine.RunUntil(20)
	if err := c.SetConsumers([]int{2, 2}); err != nil { // one start for service 1
		t.Fatal(err)
	}
	c.Clear() // abandons it
	engine.RunUntil(40)

	starts := spansNamed(ring, "cluster.consumer_start")
	if len(starts) != 3 {
		t.Fatalf("consumer_start spans = %d, want 3: %+v", len(starts), starts)
	}
	var up, cancelled int
	for _, s := range starts {
		if !s.Debug {
			t.Fatalf("consumer_start span is not debug-level: %+v", s)
		}
		delay := s.Attrs["startup_delay"].(float64)
		if delay < 5 || delay > 10 {
			t.Fatalf("startup_delay %v outside [5, 10]", delay)
		}
		if s.Attrs["cancelled"] == true {
			cancelled++
			if s.Attrs["available"] != nil || s.T1-s.T0 >= delay {
				t.Fatalf("cancelled start looks completed: %+v", s)
			}
			continue
		}
		up++
		if s.Attrs["service"] != int64(0) || s.Attrs["available"] != int64(2) {
			t.Fatalf("completed start attrs wrong: %+v", s.Attrs)
		}
		if math.Abs(s.T1-s.T0-delay) > 1e-9 {
			t.Fatalf("start span lasts %v, want its startup_delay %v", s.T1-s.T0, delay)
		}
	}
	if up != 1 || cancelled != 2 {
		t.Fatalf("up=%d cancelled=%d, want 1 and 2", up, cancelled)
	}
	if got := c.Consumers(); got[0] != 2 || got[1] != 1 {
		t.Fatalf("consumers=%v, want [2 1]", got)
	}
}

// TestRequestDroppedSpan pins the queue-drop marker: a zero-duration span
// naming the lost request and the running drop count.
func TestRequestDroppedSpan(t *testing.T) {
	c, engine, ring := newTracedCluster(t)
	engine.RunUntil(3)
	c.SetQueueDrop(0, 1)
	c.Submit(0)
	drops := spansNamed(ring, "cluster.request_dropped")
	if len(drops) != 1 {
		t.Fatalf("request_dropped spans = %d, want 1", len(drops))
	}
	d := drops[0]
	if d.T0 != 3 || d.T1 != 3 || d.Debug {
		t.Fatalf("request_dropped span timing/level wrong: %+v", d)
	}
	if d.Attrs["service"] != int64(0) || d.Attrs["workflow"] != int64(0) || d.Attrs["node"] == nil ||
		d.Attrs["dropped_total"] != uint64(1) {
		t.Fatalf("request_dropped attrs wrong: %+v", d.Attrs)
	}
}
