package ssta

import (
	"math"

	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/stats"
)

// Result is a full statistical timing analysis of a design.
//
// Arrival forms are stored structure-of-arrays — three parallel flat
// float slices indexed by node ID instead of a []Canonical — so the
// incremental timer updates rows in place and a clone is three bulk
// copies. Use Arrival(id) for the canonical view of one node.
type Result struct {
	// Delay is the canonical circuit delay: the statistical max over
	// the timing endpoints. Under an Incremental its Sens slice is one
	// of two timer-owned buffers the refold alternates between: like
	// an Arrival, treat it as read-only and re-fetch it after any
	// Update, Undo or Reset (Clone it to hold it across one).
	Delay Canonical
	// NumPC is the dimension of the global variation vector.
	NumPC int

	mean []float64 // per-node arrival mean, indexed by node ID
	rand []float64 // per-node private residual σ
	sens []float64 // n×NumPC row-major global sensitivities
}

func newResult(n, numPC int) *Result {
	return &Result{
		NumPC: numPC,
		mean:  make([]float64, n),
		rand:  make([]float64, n),
		sens:  make([]float64, n*numPC),
	}
}

// Arrival returns the canonical arrival-time form at the output of
// node id. The returned form's Sens aliases the result's backing
// storage: treat it as read-only, and re-fetch it after any update
// (Clone it to hold it across one).
func (r *Result) Arrival(id int) Canonical {
	k := r.NumPC
	return Canonical{
		Mean: r.mean[id],
		Sens: r.sens[id*k : (id+1)*k : (id+1)*k],
		Rand: r.rand[id],
	}
}

// setArrival copies c into node id's row.
func (r *Result) setArrival(id int, c Canonical) {
	k := r.NumPC
	r.mean[id] = c.Mean
	r.rand[id] = c.Rand
	copy(r.sens[id*k:(id+1)*k], c.Sens)
}

// GateDelayCanonical builds the canonical delay form of one gate: the
// nominal delay as mean, the ΔLeff sensitivity projected onto the
// gate's spatial loading vector as global sensitivities, and the
// independent ΔLeff and ΔVth contributions folded into the private
// residual.
func GateDelayCanonical(d *core.Design, id int) Canonical {
	c := NewCanonical(0, d.Var.NumPC)
	if d.Circuit.Gate(id).Type != logic.Input {
		mean, dPerNm, rnd := gateDelayScalars(d, id, d.Load(id))
		gateDelayForm(d, id, mean, dPerNm, rnd, &c)
	}
	return c
}

// gateDelayScalars returns the three numbers a gate-delay form is
// built from at the given load: the mean delay, ∂delay/∂ΔLeff (the
// global sensitivities are this times the gate's spatial loadings)
// and the private σ. id must not be a primary input. The incremental
// timer memoizes exactly these per node.
func gateDelayScalars(d *core.Design, id int, load float64) (mean, dPerNm, rnd float64) {
	vm := d.Var
	mean, dPerNm, dPerV := d.GateDelayAndDerivsAt(id, load)
	indL := dPerNm * vm.SigmaIndNm()
	indV := dPerV * vm.SigmaVthInd()
	return mean, dPerNm, math.Sqrt(indL*indL + indV*indV)
}

// gateDelayForm writes node id's gate-delay form from its scalars into
// c, whose Sens must already have length NumPC.
func gateDelayForm(d *core.Design, id int, mean, dPerNm, rnd float64, c *Canonical) {
	g := d.Circuit.Gate(id)
	c.Mean = mean
	for k, a := range d.Var.Loads(g.X, g.Y) {
		c.Sens[k] = dPerNm * a
	}
	c.Rand = rnd
}

// metFull counts full block-based analyses; its ratio to
// statleak_ssta_incremental_updates_total is the incremental timer's
// amortization factor.
var metFull = obs.Default.Counter("statleak_ssta_full_analyses_total",
	"full block-based SSTA runs (initial builds and periodic refreshes)")

// Analyze runs block-based SSTA over the design and returns the
// canonical arrival forms and the circuit-delay form. It is the
// forward pass of Incremental.Reset, run once in a fresh Result.
func Analyze(d *core.Design) (*Result, error) {
	order, err := d.Circuit.TopoOrder()
	if err != nil {
		return nil, err
	}
	inc := newTimer(d, order)
	inc.Reset()
	return inc.res, nil
}

// Yield returns the timing yield P(delay ≤ tmax) under the Gaussian
// circuit-delay approximation.
func (r *Result) Yield(tmax float64) float64 {
	return r.Delay.Normal().CDF(tmax)
}

// Quantile returns the delay value not exceeded with probability p.
func (r *Result) Quantile(p float64) float64 {
	return r.Delay.Normal().Quantile(p)
}

// StatisticalSlack returns, per node, an approximate statistical slack
// against constraint tmax at yield target eta: how much the node's
// mean delay could grow before the eta-quantile of the circuit delay
// would (approximately) violate tmax.
//
// It treats the circuit's delay variance as a global margin: the mean
// timing graph is given the effective budget
//
//	T_eff = tmax − κ·σ(D),  κ = Φ⁻¹(eta)
//
// and an ordinary mean-delay required-time pass computes slacks
// against it. Accumulating κσ per gate along paths instead would
// overcount the variance by ~√depth (sigmas add in RSS, not
// linearly), starving the optimizer of slack; treating σ(D) as a
// slowly varying global is the standard fix. This is a ranking
// signal — the hard feasibility check remains Yield(tmax) ≥ eta with
// rollback.
func (r *Result) StatisticalSlack(d *core.Design, tmax, eta float64) ([]float64, error) {
	order, err := d.Circuit.TopoOrder()
	if err != nil {
		return nil, err
	}
	n := d.Circuit.NumNodes()
	gd := make([]float64, n)
	for _, id := range order {
		if d.Circuit.Gate(id).Type != logic.Input {
			gd[id] = d.GateDelay(id)
		}
	}
	slack := make([]float64, n)
	r.slackInto(d, order, gd, tmax, eta, make([]float64, n), slack)
	return slack, nil
}

// slackInto is the required-time pass of StatisticalSlack over the
// per-node mean gate delays gd (0 for primary inputs). It writes the
// slacks into slack and uses req as scratch; both have one entry per
// node.
func (r *Result) slackInto(d *core.Design, order []int, gd []float64, tmax, eta float64, req, slack []float64) {
	kappa := stats.NormalQuantile(eta)
	tEff := tmax - kappa*r.Delay.Sigma()
	for i := range req {
		req[i] = inf
	}
	for _, o := range d.Circuit.Outputs() {
		if tEff < req[o] {
			req[o] = tEff
		}
	}
	// Backward pass with mean gate delays (the canonical means include
	// the Clark max bias of the forward arrivals, which keeps forward
	// and backward views consistent).
	setup := d.Lib.P.DffSetupPs
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		g := d.Circuit.Gate(id)
		rq := req[id]
		for _, s := range g.Fanout {
			var v float64
			if d.Circuit.Gate(s).Type == logic.Dff {
				v = tEff - setup // capture at the D pin
			} else {
				v = req[s] - gd[s]
			}
			if v < rq {
				rq = v
			}
		}
		req[id] = rq
	}
	for i := range slack {
		slack[i] = req[i] - r.mean[i]
	}
}

var inf = 1e300
