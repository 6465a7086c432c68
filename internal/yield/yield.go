// Package yield computes timing-yield metrics over a design: the SSTA
// yield curve, and the Monte Carlo yield with a standard error that
// importance sampling makes affordable at high-yield constraints.
package yield

import (
	"repro/internal/core"
	"repro/internal/ssta"
)

// Analyzed wraps one SSTA pass so every constraint a yield curve
// queries shares the analysis instead of re-running it.
type Analyzed struct {
	R *ssta.Result
}

// Analyze runs SSTA once and returns the shared analyzed result.
func Analyze(d *core.Design) (*Analyzed, error) {
	r, err := ssta.Analyze(d)
	if err != nil {
		return nil, err
	}
	return &Analyzed{R: r}, nil
}

// Curve samples the SSTA timing-yield curve Yield(T) at the given
// constraints.
func (a *Analyzed) Curve(tmaxs []float64) []float64 {
	out := make([]float64, len(tmaxs))
	for i, t := range tmaxs {
		out[i] = a.R.Yield(t)
	}
	return out
}
