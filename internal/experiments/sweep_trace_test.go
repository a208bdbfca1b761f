package experiments

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"miras/internal/obs"
	"miras/internal/trace"
)

// TestTracedSweepTraceByteIdentical pins the sim-time trace of the
// fan-out experiments: a traced BudgetSweep and MultiSeedTable must emit
// byte-identical JSONL across runs and across GOMAXPROCS 1 and 2. The
// tracer's clock and ambient parent are single-goroutine state, so a
// traced fan-out has to run its points in index order; under -race a
// parallel traced fan-out also reports data races here.
func TestTracedSweepTraceByteIdentical(t *testing.T) {
	run := func(procs int) string {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		var buf bytes.Buffer
		s := toySetup(t)
		s.CompareWindows = 4
		s.Tracer = obs.NewTracer(obs.TracerConfig{Recorder: obs.NewRecorder(&buf), SimTime: true, Debug: true})
		if _, err := BudgetSweep(s, []string{"heft", "monad"}, []int{4, 6, 8}); err != nil {
			t.Fatal(err)
		}
		table := func(s Setup) (*trace.Table, error) {
			res, err := Compare(s, []int{10}, []string{"heft"}, nil)
			if err != nil {
				return nil, err
			}
			return &res.Table, nil
		}
		if _, err := MultiSeedTable(s, []int64{1, 2}, table); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b, c := run(2), run(2), run(1)
	if a != b {
		t.Fatal("traced sweep emitted different traces on identical runs")
	}
	if a != c {
		t.Fatal("traced sweep trace differs between GOMAXPROCS 2 and 1")
	}
	for _, want := range []string{`"name":"env.window"`, `"name":"cluster.scale"`, `"wip":[`} {
		if !strings.Contains(a, want) {
			t.Fatalf("sweep trace missing %s", want)
		}
	}
}
