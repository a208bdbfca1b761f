package main

// train-msd: the Fig. 6 loop (Algorithm 2) on experiments.QuickSetup("msd").

import (
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"miras/internal/core"
	"miras/internal/env"
	"miras/internal/experiments"
	"miras/internal/nn"
	"miras/internal/obs"
)

const (
	// trainIterations makes one training run a few seconds long.
	trainIterations = 20
	// compactIterations sizes the train-msd leg of another workload's
	// traced tour.
	compactIterations = 5
	// warmupIterations is the short training run that set-up performs so
	// that heap growth and first-touch costs land before timing.
	warmupIterations = 2
)

func msdSetup(seed int64, iterations int) (experiments.Setup, error) {
	s, err := experiments.QuickSetup("msd")
	if err != nil {
		return s, err
	}
	s.Seed = seed
	s.Iterations = iterations
	return s, nil
}

// trainRun is one timed training run.
type trainRun struct {
	res       *experiments.TrainingResult
	wall, cpu time.Duration
	allocs    uint64
}

// trainOnce runs the Fig. 6 loop once through experiments.TrainingTrace.
func trainOnce(s experiments.Setup) (trainRun, error) {
	m0 := mallocs()
	t0, c0 := time.Now(), cpuTime()
	res, err := experiments.TrainingTrace(s)
	wall, cpu := time.Since(t0), cpuTime()-c0
	allocs := mallocs() - m0
	if err != nil {
		return trainRun{}, fmt.Errorf("training: %w", err)
	}
	return trainRun{res: res, wall: wall, cpu: cpu, allocs: allocs}, nil
}

// evalHarnesses is how many fresh harnesses the trained policy is
// evaluated on; their costs are summed so the figure does not hinge on
// one harness's arrivals.
const evalHarnesses = 16

// msdPolicyCost runs the trained policy on fresh harnesses for the setup's
// evaluation windows, each after the Fig. 6 evaluation burst (half the
// training burst maxima), and returns the negated aggregated Eq. 1 reward
// summed over them: the summed WIP, lower is better.
func msdPolicyCost(s experiments.Setup, agent *core.Agent) (float64, error) {
	s.Tracer = nil
	burst := make([]int, len(s.TrainBurstMax))
	for i, m := range s.TrainBurstMax {
		burst[i] = m / 2
	}
	cost := 0.0
	for k := 0; k < evalHarnesses; k++ {
		h, err := experiments.BuildHarness(s, 300+int64(k))
		if err != nil {
			return 0, err
		}
		if err := h.Generator.InjectBurst(burst); err != nil {
			return 0, err
		}
		res, err := env.Run(h.Env, agent.Controller(), s.EvalSteps)
		if err != nil {
			return 0, err
		}
		for _, r := range res {
			cost -= r.Reward
		}
	}
	return cost, nil
}

func runTrainMSD(cfg runConfig, r *report) error {
	iterations := trainIterations
	if cfg.compact {
		iterations = compactIterations
	}
	setups := 3
	if cfg.trace {
		setups = 1
	}
	var setupS []float64
	for i := 0; i < setups; i++ {
		c0 := cpuTime()
		s, err := msdSetup(cfg.seed, warmupIterations)
		if err != nil {
			return err
		}
		if _, err := experiments.TrainingTrace(s); err != nil {
			return fmt.Errorf("warm-up training: %w", err)
		}
		setupS = append(setupS, (cpuTime() - c0).Seconds())
	}
	r.set("setup_s", median(setupS), len(setupS))
	s, err := msdSetup(cfg.seed, iterations)
	if err != nil {
		return err
	}
	if cfg.trace {
		return traceTrain(s, filepath.Join(cfg.workdir, "train-checkpoints"), r)
	}

	// Training runs of one seed for the measured phase: each must repeat
	// the previous one exactly.
	var last *experiments.TrainingResult
	var total, lastWall time.Duration
	budget := time.Duration(cfg.seconds * float64(time.Second))
	for runs := 0; runs < 2 || total+lastWall/2 < budget; runs++ {
		tr, err := trainOnce(s)
		if err != nil {
			return err
		}
		checkTraining(r, tr.res, iterations)
		if last != nil {
			r.check(reflect.DeepEqual(tr.res.Stats, last.Stats),
				"training run %d: iteration stats differ from the previous run of the same seed", runs)
		}
		total += tr.wall
		last, lastWall = tr.res, tr.wall // only the newest agent stays live
	}
	r.set("live_heap_mb", liveHeapMB(), 1)

	cost, err := msdPolicyCost(s, last.Agent)
	if err != nil {
		return err
	}
	r.check(finite(cost) && cost > 0, "policy cost %g is not a positive finite number", cost)
	r.set("policy_cost", cost, evalHarnesses*s.EvalSteps)

	runtime.KeepAlive(last)
	return nil
}

// resumeCost checkpoints a training run and resumes it from its final
// checkpoint (restore plus replay of the real-environment log) several
// times, checking that every resume reproduces the stats of want. It
// records the median CPU time of a resume.
func resumeCost(s experiments.Setup, dir string, want []core.IterationStats, r *report) error {
	ref, err := experiments.TrainingTraceOpts(s, experiments.TrainOptions{CheckpointDir: dir})
	if err != nil {
		return fmt.Errorf("checkpointed training: %w", err)
	}
	r.check(reflect.DeepEqual(ref.Stats, want), "checkpointed run's stats differ from the plain run's")
	var resumeS []float64
	for i := 0; i < restartCycles; i++ {
		runtime.GC() // every resume starts from the same heap
		c0 := cpuTime()
		res, err := experiments.TrainingTraceOpts(s, experiments.TrainOptions{CheckpointDir: dir, Resume: true})
		resumeS = append(resumeS, (cpuTime() - c0).Seconds())
		if err != nil {
			return fmt.Errorf("resume: %w", err)
		}
		r.check(reflect.DeepEqual(res.Stats, ref.Stats), "resumed run %d: stats differ from the checkpointed run's", i)
	}
	r.set("core.resume_cpu_s", median(resumeS), len(resumeS))
	return nil
}

// checkTraining checks one run's shape: every iteration present and every
// evaluation return finite.
func checkTraining(r *report, res *experiments.TrainingResult, iterations int) {
	r.check(len(res.Stats) == iterations, "training produced %d iterations, want %d", len(res.Stats), iterations)
	for _, st := range res.Stats {
		r.check(finite(st.EvalReturn) && finite(st.ModelLoss),
			"iteration %d: eval return %g, model loss %g", st.Iteration, st.EvalReturn, st.ModelLoss)
	}
}

// traceTrain runs untraced and traced trainings of the same seed in turn,
// checks that they agree exactly, and derives the training layers'
// metrics from the last traced run's spans. The tracing overhead compares
// the fastest run of each kind.
func traceTrain(s experiments.Setup, checkpoints string, r *report) error {
	var plain, traced trainRun
	var ring *obs.SpanRing
	minPlain, minTraced := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for i := 0; i < 2; i++ {
		var err error
		if plain, err = trainOnce(s); err != nil {
			return err
		}
		ring = obs.NewSpanRing(1 << 16)
		ts := s
		ts.Tracer = obs.NewTracer(obs.TracerConfig{Ring: ring, Debug: true})
		if traced, err = trainOnce(ts); err != nil {
			return err
		}
		minPlain, minTraced = min(minPlain, plain.cpu), min(minTraced, traced.cpu)
	}
	checkTraining(r, plain.res, s.Iterations)
	r.check(reflect.DeepEqual(plain.res.Stats, traced.res.Stats), "traced and untraced iteration stats differ")
	cp, err := msdPolicyCost(s, plain.res.Agent)
	if err != nil {
		return err
	}
	ct, err := msdPolicyCost(s, traced.res.Agent)
	if err != nil {
		return err
	}
	r.check(finite(cp) && cp == ct, "policy cost untraced %g, traced %g", cp, ct)
	if ring.Len() >= 1<<16 {
		return fmt.Errorf("span ring overflowed; raise its capacity")
	}

	sum := map[string]float64{}
	count := map[string]int{}
	for _, rec := range ring.Records() {
		sum[rec.Name] += rec.WallDur
		count[rec.Name]++
	}
	named := 0.0
	for _, p := range []string{"collect", "fit_model", "improve_policy", "evaluate", "health_guard"} {
		named += sum["train."+p]
		r.set("core."+p+"_s", sum["train."+p], count["train."+p])
	}
	r.set("core.unnamed_s", traced.wall.Seconds()-named, 1)

	agent := traced.res.Agent
	updates := count["ddpg.update"]
	r.check(uint64(updates) == agent.DDPG().Updates(),
		"%d ddpg.update spans for %d updates", updates, agent.DDPG().Updates())
	updateUS := sum["ddpg.update"] / float64(updates) * 1e6
	r.set("rl.update_us", updateUS, updates)
	r.set("rl.updates", float64(updates), 1)
	r.set("envmodel.fit_s", sum["model.fit"], count["model.fit"])
	r.set("env.window_us", sum["env.window"]/float64(count["env.window"])*1e6, count["env.window"])
	r.set("env.windows", float64(count["env.window"]), 1)
	gflop := updateGFLOP(agent)
	r.set("nn.update_gflop", gflop, 1)
	r.set("nn.gflops", gflop/(updateUS*1e-6), updates)
	r.set("nn.fit_epoch_gflop", 6*float64(agent.Dataset().Len())*netMACs(agent.Model().Network())/1e9, 1)
	r.set("train.allocs_per_iter", float64(plain.allocs)/float64(s.Iterations), s.Iterations)
	r.set("capacity_per_cpu_s", float64(s.Iterations)/minPlain.Seconds(), 2)
	r.set("capacity_wall_per_s", float64(s.Iterations)/plain.wall.Seconds(), 1)
	r.set("trace_overhead_pct", (minTraced.Seconds()/minPlain.Seconds()-1)*100, 2)
	return resumeCost(s, checkpoints, plain.res.Stats, r)
}

// netMACs is the multiply-accumulate count of one sample's forward pass.
func netMACs(n *nn.Network) float64 {
	m := 0.0
	for _, l := range n.Layers {
		m += float64(l.W.Rows * l.W.Cols)
	}
	return m
}

// updateGFLOP is the computed GEMM work of one DDPG minibatch update, from
// the network shapes (see rl.DDPG.Update): 4 actor and 7 critic passes in
// forward-pass units, a backward pass counting as 2 (input and weight
// gradients), 2 flops per multiply-accumulate. Optimiser steps and soft
// target updates are not GEMMs and are left out.
func updateGFLOP(agent *core.Agent) float64 {
	d := agent.DDPG()
	b := float64(d.Config().BatchSize)
	return 2 * b * (4*netMACs(d.Actor()) + 7*netMACs(d.Critic())) / 1e9
}
