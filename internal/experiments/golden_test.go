package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"testing"
)

// The golden end-to-end gate: seeded short-horizon runs of the three CLI
// pipelines (train, compare, chaos) and of the extension drivers (dynamic
// load, kill-timer chaos, window length, budget sweep, per-workflow
// breakdown) whose CSV output digests are pinned in testdata/golden.json. Any behavioural drift — a reordered RNG draw, a
// changed reward term, a float reassociation — changes the bytes and fails
// the gate. Refresh deliberately with:
//
//	go test ./internal/experiments/ -run TestGolden -update
//
// The digests are pinned for linux/amd64: Go's math library uses
// per-architecture assembly, so other platforms may legitimately produce
// different low bits. The gate skips elsewhere rather than pinning per-arch
// tables nobody regenerates.
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.json with the digests this run produces")

const goldenPath = "testdata/golden.json"

// goldenCSV produces the named pipeline's CSV bytes at micro scale.
func goldenCSV(t *testing.T, gate string) []byte {
	t.Helper()
	s := microSetup(t, "msd")
	var buf bytes.Buffer
	switch gate {
	case "train":
		res, err := TrainingTrace(s)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Table.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
	case "compare":
		res, err := Compare(s, []int{40, 20, 20}, []string{"stream", "heft", "monad"}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Table.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
	case "chaos":
		results, err := ChaosCompareAll(s, []string{"stream", "heft", "monad"}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteChaosSummary(&buf, results); err != nil {
			t.Fatal(err)
		}
	case "dynamic":
		algs := []string{"stream", "heft", "monad", "hpa", "static"}
		res, err := DynamicLoad(s, algs, nil, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Table.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		writeRuns(&buf, algs, res)
	case "killchaos":
		algs := []string{"stream", "heft", "monad", "hpa"}
		res, err := Chaos(s, algs, nil, 20)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Table.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		writeRuns(&buf, algs, res)
	case "window":
		res, err := WindowLengthAblation(s, []float64{10, 30})
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Table.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
	case "budget":
		algs := []string{"heft", "monad"}
		res, err := BudgetSweep(s, algs, []int{6, 14, 24})
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Table.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		for _, name := range algs {
			fmt.Fprintf(&buf, "%s,%v\n", name, res.Completed[name])
		}
	case "byworkflow":
		res, err := Compare(s, []int{40, 20, 20}, []string{"heft"}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.WorkflowTables["heft"].WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		writeRuns(&buf, []string{"heft"}, &res.ScenarioResult)
	default:
		t.Fatalf("unknown golden gate %q", gate)
	}
	return buf.Bytes()
}

// writeRuns appends one "name,completed,mean_delay_sec,crashed" line per
// controller after a gate's table CSV.
func writeRuns(buf *bytes.Buffer, names []string, res *ScenarioResult) {
	for _, name := range names {
		fmt.Fprintf(buf, "%s,%d,%s,%d\n", name, res.Completed[name],
			strconv.FormatFloat(res.OverallMeanDelay[name], 'g', -1, 64), res.Crashed[name])
	}
}

func readGolden(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read pinned digests (run with -update to create them): %v", err)
	}
	pinned := make(map[string]string)
	if err := json.Unmarshal(data, &pinned); err != nil {
		t.Fatalf("parse %s: %v", goldenPath, err)
	}
	return pinned
}

func TestGoldenEndToEnd(t *testing.T) {
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are pinned for linux/amd64, not %s/%s", runtime.GOOS, runtime.GOARCH)
	}
	if testing.Short() && !*updateGolden {
		t.Skip("golden gate trains a policy; skipped in -short mode")
	}
	gates := []string{"train", "compare", "chaos", "dynamic", "killchaos", "window", "budget", "byworkflow"}

	if *updateGolden {
		pinned := make(map[string]string)
		for _, gate := range gates {
			sum := sha256.Sum256(goldenCSV(t, gate))
			pinned[gate] = hex.EncodeToString(sum[:])
		}
		keys := make([]string, 0, len(pinned))
		for k := range pinned {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		ordered := make(map[string]string, len(pinned))
		for _, k := range keys {
			ordered[k] = pinned[k]
		}
		data, err := json.MarshalIndent(ordered, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s: %v", goldenPath, ordered)
		return
	}

	pinned := readGolden(t)
	for _, gate := range gates {
		gate := gate
		t.Run(gate, func(t *testing.T) {
			want, ok := pinned[gate]
			if !ok {
				t.Fatalf("no pinned digest for gate %q in %s (run with -update)", gate, goldenPath)
			}
			csv := goldenCSV(t, gate)
			sum := sha256.Sum256(csv)
			got := hex.EncodeToString(sum[:])
			if got != want {
				t.Errorf("gate %q drifted: sha256 %s, pinned %s\nfirst lines:\n%s",
					gate, got, want, firstLines(csv, 4))
			}
		})
	}
}

// firstLines returns up to n leading lines of b for drift diagnostics.
func firstLines(b []byte, n int) []byte {
	idx := 0
	for i := 0; i < n; i++ {
		next := bytes.IndexByte(b[idx:], '\n')
		if next < 0 {
			return b
		}
		idx += next + 1
	}
	return b[:idx]
}
