// Command perfbench is the MIRAS repository benchmark. One process runs
// one workload and prints its metrics; see README.md for what each
// workload and metric measures and why. Run it from the repository root,
// where it reads BENCHMARK.json:
//
//	bash perfbench/run.sh --workload serve-step-zipf --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics, measured with tracing
// off. With --trace 1 it prints the per-layer metrics from a traced run.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}}}
//
// Lines before it give the same metrics as a table with sample counts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// metricDef names one metric and its unit. The two tables below are the
// metric lists of BENCHMARK.json; main refuses to run if they disagree.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"policy_cost", "req"},
	{"live_heap_mb", "MB"},
}

var perLayer = []metricDef{
	{"client.hop_p50_ms", "ms"},
	{"router.self_p50_ms", "ms"},
	{"router.self_p99_ms", "ms"},
	{"transport.hop_p50_ms", "ms"},
	{"httpapi.handler_step_p50_ms", "ms"},
	{"httpapi.handler_step_p99_ms", "ms"},
	{"httpapi.handler_info_p50_ms", "ms"},
	{"httpapi.handler_info_p99_ms", "ms"},
	{"httpapi.handler_burst_p50_ms", "ms"},
	{"httpapi.handler_burst_p99_ms", "ms"},
	{"httpapi.other_p50_ms", "ms"},
	{"httpapi.other_p99_ms", "ms"},
	{"env.step_p50_ms", "ms"},
	{"env.step_p99_ms", "ms"},
	{"rl.decide_p50_us", "us"},
	{"spill.tick_p50_ms", "ms"},
	{"spill.bytes_per_session", "B"},
	{"spill.ticks", "count"},
	{"rehydrate.cpu_s", "s"},
	{"rehydrate.ms_per_session", "ms"},
	{"router.retries", "count"},
	{"router.shard_max_share", "ratio"},
	{"serve.allocs_per_req", "count"},
	{"serve.error_rate", "ratio"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.backlog_end", "count"},
	{"core.collect_s", "s"},
	{"core.fit_model_s", "s"},
	{"core.improve_policy_s", "s"},
	{"core.evaluate_s", "s"},
	{"core.health_guard_s", "s"},
	{"core.unnamed_s", "s"},
	{"core.resume_cpu_s", "s"},
	{"rl.update_us", "us"},
	{"rl.updates", "count"},
	{"envmodel.fit_s", "s"},
	{"env.window_us", "us"},
	{"env.windows", "count"},
	{"nn.update_gflop", "GFLOP"},
	{"nn.fit_epoch_gflop", "GFLOP"},
	{"nn.gflops", "GFLOP/s"},
	{"train.allocs_per_iter", "count"},
	{"serve.p50_ms", "ms"},
	{"serve.p99_ms", "ms"},
	{"capacity_per_cpu_s", "1/s"},
	{"capacity_wall_per_s", "1/s"},
	{"trace_overhead_pct", "%"},
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(runConfig, *report) error{
	"train-msd":        runTrainMSD,
	"serve-step-zipf":  runZipf,
	"serve-ligo-burst": runLigo,
}

// tourOrder is the order of the traced tour (see runTraced).
var tourOrder = []string{"train-msd", "serve-step-zipf", "serve-ligo-burst"}

// runConfig is one workload run's parameters.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	// compact shrinks the run to a few seconds of fixed work; the traced
	// tour uses it for the workloads other than the one asked for.
	compact bool
	workdir string
}

// metric is one reported value; n (the sample count) is printed in the
// table but not in the JSON line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int
}

// report collects one run's metrics and its operation and check counts.
// A failed check counts as a failed operation.
type report struct {
	metrics   map[string]metric
	attempted int64
	failed    int64
	problems  []string
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name string, v float64, n int) {
	r.metrics[name] = metric{Value: v, Unit: unitOf(name), n: n}
}

// check records one checked operation; a false ok counts it as failed.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		if len(r.problems) < 20 {
			r.problems = append(r.problems, fmt.Sprintf(format, args...))
		}
	}
}

func unitOf(name string) string {
	for _, tab := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range tab {
			if d.name == name {
				return d.unit
			}
		}
	}
	panic("perfbench: unknown metric " + name)
}

func main() {
	workload := flag.String("workload", "", "workload name: train-msd, serve-step-zipf or serve-ligo-burst")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 20, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1 prints per-layer metrics from a traced run, 0 end-to-end metrics")
	workdir := flag.String("workdir", ".bench_build", "directory for spill and checkpoint files (removed at exit)")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace == 1, *workdir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds float64, trace bool, workdir string) error {
	if _, ok := workloads[workload]; !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if err := checkBenchmarkJSON("BENCHMARK.json"); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(workdir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	cfg := runConfig{seed: seed, seconds: seconds, trace: trace, workdir: dir}
	start := time.Now()
	var rep *report
	if trace {
		rep, err = runTraced(workload, cfg)
	} else {
		rep = newReport()
		err = workloads[workload](cfg, rep)
	}
	if err != nil {
		return err
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		m, ok := rep.metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not finite", d.name)
		}
		out[d.name] = m
	}
	fmt.Printf("# %s seed=%d seconds=%g trace=%v wall=%.1fs GOMAXPROCS=%d\n",
		workload, seed, seconds, trace, time.Since(start).Seconds(), runtime.GOMAXPROCS(0))
	for _, d := range defs {
		m := out[d.name]
		fmt.Printf("%-30s %14.6g %-8s n=%d\n", d.name, m.Value, m.Unit, m.n)
	}
	for _, p := range rep.problems {
		fmt.Println("# check failed:", p)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.failed == 0 && rep.attempted > 0, rep.attempted, rep.failed, out})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runTraced runs the traced tour: every workload, the requested one at
// full length and the others compact, so each per-layer metric is
// measured in every traced run. Metrics of the requested workload
// override those of the compact runs.
func runTraced(workload string, cfg runConfig) (*report, error) {
	rep := newReport()
	order := make([]string, 0, len(tourOrder))
	for _, w := range tourOrder {
		if w != workload {
			order = append(order, w)
		}
	}
	order = append(order, workload)
	for _, w := range order {
		c := cfg
		c.compact = w != workload
		c.workdir = filepath.Join(cfg.workdir, w)
		if err := os.MkdirAll(c.workdir, 0o755); err != nil {
			return nil, err
		}
		sub := newReport()
		if err := workloads[w](c, sub); err != nil {
			return nil, fmt.Errorf("%s: %w", w, err)
		}
		for k, v := range sub.metrics {
			rep.metrics[k] = v
		}
		rep.attempted += sub.attempted
		rep.failed += sub.failed
		for _, p := range sub.problems {
			rep.problems = append(rep.problems, w+": "+p)
		}
	}
	return rep, nil
}

// checkBenchmarkJSON verifies that BENCHMARK.json lists exactly the
// metrics this program reports, with the same units.
func checkBenchmarkJSON(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("read %s (run from the checkout root): %w", path, err)
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	same := func(got []struct{ Name, Unit string }, want []metricDef) bool {
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				return false
			}
		}
		return true
	}
	var got, want []string
	for _, w := range spec.Workloads {
		got = append(got, w.Name)
	}
	for w := range workloads {
		want = append(want, w)
	}
	sort.Strings(got)
	sort.Strings(want)
	if !same(spec.EndToEnd, endToEnd) || !same(spec.PerLayer, perLayer) ||
		strings.Join(got, ",") != strings.Join(want, ",") {
		return fmt.Errorf("%s does not match the benchmark's workload and metric tables", path)
	}
	return nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (NaN for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// liveHeapMB forces a collection and returns the heap still in use.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// cpuTime returns the CPU time the process has used, from the
// CLOCK_PROCESS_CPUTIME_ID clock (nanosecond resolution; getrusage rounds
// to scheduler ticks). Unlike wall-clock time it leaves out the time the
// process was not running: waits, and the idle gaps a shared host's
// hypervisor imposes.
func cpuTime() time.Duration {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID,
		uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("perfbench: clock_gettime(CLOCK_PROCESS_CPUTIME_ID): " + errno.Error())
	}
	return time.Duration(ts.Nano())
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
