package envmodel

import (
	"fmt"
	"math"

	"miras/internal/mat"
	"miras/internal/parallel"
)

// ModelEnsemble averages K independently initialised environment models —
// the variance-reduction extension from Nagabandi et al. (the paper's
// ref. [25]), which MIRAS lists as the model-based RL lineage it builds
// on. Beyond smoother rollouts, the ensemble exposes per-prediction
// disagreement, a cheap epistemic-uncertainty signal: high disagreement
// marks state-action regions where more real data is needed (the failure
// mode Algorithm 2's iterative collection exists to fix).
type ModelEnsemble struct {
	models []*Model
	// scratch holds one member's prediction during aggregation.
	scratch []float64
}

// Compile-time interface check: an ensemble is a drop-in Predictor.
var _ Predictor = (*ModelEnsemble)(nil)

// NewEnsemble builds k models from cfg with decorrelated seeds.
func NewEnsemble(cfg Config, k int) (*ModelEnsemble, error) {
	if k <= 0 {
		return nil, fmt.Errorf("envmodel: ensemble size %d must be positive", k)
	}
	e := &ModelEnsemble{}
	for i := 0; i < k; i++ {
		c := cfg
		c.Seed = cfg.Seed + int64(i)*7919 // distinct init and batch order
		m, err := New(c)
		if err != nil {
			return nil, err
		}
		e.models = append(e.models, m)
	}
	e.scratch = make([]float64, cfg.StateDim)
	return e, nil
}

// Size returns the number of member models.
func (e *ModelEnsemble) Size() int { return len(e.models) }

// StateDim implements Predictor.
func (e *ModelEnsemble) StateDim() int { return e.models[0].StateDim() }

// ActionDim implements Predictor.
func (e *ModelEnsemble) ActionDim() int { return e.models[0].ActionDim() }

// Trained reports whether every member has been fit.
func (e *ModelEnsemble) Trained() bool {
	for _, m := range e.models {
		if !m.Trained() {
			return false
		}
	}
	return true
}

// Fit trains every member on d for the given epochs and returns each
// member's final-epoch loss. Members are independent (own parameters, own
// seeded RNG, read-only view of d), so they train concurrently on the
// shared worker pool; results are identical to sequential fitting.
func (e *ModelEnsemble) Fit(d *Dataset, epochs int) ([]float64, error) {
	finals := make([]float64, len(e.models))
	err := parallel.For(len(e.models), func(i int) error {
		losses, err := e.models[i].Fit(d, epochs)
		if err != nil {
			return fmt.Errorf("envmodel: ensemble member %d: %w", i, err)
		}
		finals[i] = losses[len(losses)-1]
		return nil
	})
	if err != nil {
		return nil, err
	}
	return finals, nil
}

// PredictTo implements Predictor: the mean of the members' predictions.
func (e *ModelEnsemble) PredictTo(dst, state, action []float64) {
	for i := range dst {
		dst[i] = 0
	}
	for _, m := range e.models {
		m.PredictTo(e.scratch, state, action)
		mat.VecAddScaled(dst, e.scratch, 1)
	}
	mat.VecScale(dst, 1/float64(len(e.models)))
}

// Predict returns the mean prediction as a fresh slice.
func (e *ModelEnsemble) Predict(state, action []float64) []float64 {
	out := make([]float64, e.StateDim())
	e.PredictTo(out, state, action)
	return out
}

// Disagreement returns the members' mean per-coordinate standard deviation
// at (state, action) — 0 for a single-member ensemble, growing where the
// models extrapolate differently.
func (e *ModelEnsemble) Disagreement(state, action []float64) float64 {
	if len(e.models) == 1 {
		return 0
	}
	dim := e.StateDim()
	mean := make([]float64, dim)
	sq := make([]float64, dim)
	for _, m := range e.models {
		m.PredictTo(e.scratch, state, action)
		for i, v := range e.scratch {
			mean[i] += v
			sq[i] += v * v
		}
	}
	n := float64(len(e.models))
	var total float64
	for i := range mean {
		mu := mean[i] / n
		variance := sq[i]/n - mu*mu
		if variance < 0 {
			variance = 0
		}
		total += math.Sqrt(variance)
	}
	return total / float64(dim)
}
