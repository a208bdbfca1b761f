package experiments

import (
	"fmt"

	"miras/internal/metrics"
	"miras/internal/parallel"
	"miras/internal/trace"
)

// BudgetSweepResult is the cost–performance curve behind §II-C's
// constrained-resource motivation: mean burst response time as a function
// of the total consumer budget C, per controller. It locates the knee the
// paper's §VI-A4 describes ("a good constraint means we don't have
// redundant resources ... and also resources should be sufficient").
type BudgetSweepResult struct {
	// Budgets lists the swept consumer constraints.
	Budgets []int
	// Table has one series per controller; X is the budget.
	Table trace.Table
	// Completed[name][i] counts completions at Budgets[i].
	Completed map[string][]int
}

// BudgetSweep runs the first paper burst at each budget for each named
// (non-learning) controller.
func BudgetSweep(s Setup, algorithms []string, budgets []int) (*BudgetSweepResult, error) {
	if len(budgets) == 0 {
		return nil, fmt.Errorf("experiments: no budgets to sweep")
	}
	bursts, err := paperOrFallbackBursts(s)
	if err != nil {
		return nil, err
	}
	res := &BudgetSweepResult{
		Budgets:   append([]int(nil), budgets...),
		Completed: make(map[string][]int),
	}
	x := make([]float64, len(budgets))
	for i, b := range budgets {
		if b <= 0 {
			return nil, fmt.Errorf("experiments: budget %d must be positive", b)
		}
		x[i] = float64(b)
	}
	res.Table = trace.Table{
		Title:  fmt.Sprintf("budget-sweep-%s", s.EnsembleName),
		XLabel: "consumer budget C",
		YLabel: "mean response time (s)",
		X:      x,
	}
	// Every (algorithm, budget) point is an independent run — fresh
	// harness, fresh controller, randomness rooted in the point's own
	// Setup — so the grid fans out across the worker pool (unless traced,
	// see fanOut) and lands in index-addressed slots, keeping the output
	// identical to a sequential sweep.
	points := make([]*ScenarioResult, len(algorithms)*len(budgets))
	err = fanOut(s, len(points), func(idx int) error {
		name := algorithms[idx/len(budgets)]
		b := budgets[idx%len(budgets)]
		sb := s
		sb.Budget = b
		r, err := runScenario(sb, scenario{offset: 300, burst: bursts[0]}, res.Table.Title, []string{name}, nil)
		if err != nil {
			return fmt.Errorf("experiments: sweep %s@%d: %w", name, b, err)
		}
		points[idx] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	for ai, name := range algorithms {
		delays := make([]float64, len(budgets))
		completed := make([]int, len(budgets))
		for bi := range budgets {
			p := points[ai*len(budgets)+bi]
			delays[bi] = metrics.Mean(p.Table.Series[0].Values)
			completed[bi] = p.Completed[name]
		}
		res.Table.AddSeries(name, delays)
		res.Completed[name] = completed
	}
	return res, nil
}

// fanOut runs fn(0) … fn(n−1) on the worker pool, or — when s carries a
// tracer — in index order on the calling goroutine, stopping at the first
// error. The tracer's clock and ambient parent belong to one goroutine, and
// sequential span ids are what make a sim-time trace byte-identical across
// runs and GOMAXPROCS; untraced runs keep the parallel speed.
func fanOut(s Setup, n int, fn func(i int) error) error {
	if s.Tracer == nil {
		return parallel.For(n, fn)
	}
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return err
		}
	}
	return nil
}

// MultiSeedTable reruns a table-producing experiment across seeds and
// aggregates each series pointwise into mean and mean±std bands — honest
// error bars for stochastic experiments. Series are matched by name; all
// runs must produce the same series set.
//
// Seeds fan out across the worker pool (unless traced, see fanOut), so run
// must be safe for concurrent invocation with distinct Setups (every
// experiment driver in this package is: all state is built fresh from the
// Setup). Each run's randomness is rooted in its own seed and results are
// aggregated in seed order, so the table is bit-for-bit identical to a
// sequential loop over the seeds.
func MultiSeedTable(base Setup, seeds []int64, run func(Setup) (*trace.Table, error)) (*trace.Table, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("experiments: no seeds")
	}
	tables := make([]*trace.Table, len(seeds))
	err := fanOut(base, len(seeds), func(i int) error {
		s := base
		s.Seed = seeds[i]
		t, err := run(s)
		if err != nil {
			return fmt.Errorf("experiments: seed %d: %w", seeds[i], err)
		}
		tables[i] = t
		return nil
	})
	if err != nil {
		return nil, err
	}
	// collected[name][seedIdx] = series values.
	collected := make(map[string][][]float64)
	var order []string
	var template *trace.Table
	for i, t := range tables {
		if template == nil {
			template = t
			for _, series := range t.Series {
				order = append(order, series.Name)
			}
		}
		if len(t.Series) != len(order) {
			return nil, fmt.Errorf("experiments: seed %d produced %d series, want %d",
				seeds[i], len(t.Series), len(order))
		}
		for _, series := range t.Series {
			collected[series.Name] = append(collected[series.Name], series.Values)
		}
	}
	out := &trace.Table{
		Title:  template.Title + "-multiseed",
		XLabel: template.XLabel,
		YLabel: template.YLabel,
		X:      template.X,
	}
	for _, name := range order {
		runs := collected[name]
		n := 0
		for _, r := range runs {
			if len(r) > n {
				n = len(r)
			}
		}
		mean := make([]float64, n)
		lo := make([]float64, n)
		hi := make([]float64, n)
		for i := 0; i < n; i++ {
			var point []float64
			for _, r := range runs {
				if i < len(r) {
					point = append(point, r[i])
				}
			}
			m := metrics.Mean(point)
			sd := metrics.Std(point)
			mean[i] = m
			lo[i] = m - sd
			hi[i] = m + sd
		}
		out.AddSeries(name, mean)
		out.AddSeries(name+"-lo", lo)
		out.AddSeries(name+"-hi", hi)
	}
	return out, nil
}
