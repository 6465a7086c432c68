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
	// the primary-output arrivals. Its Sens slice is freshly allocated
	// on every refold, so holding the value across updates is safe.
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

// NumNodes returns the number of nodes the result covers.
func (r *Result) NumNodes() int { return len(r.mean) }

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

// ArrivalMean returns just the mean arrival time of node id — the
// cheap accessor the slack and critical-path walks use.
func (r *Result) ArrivalMean(id int) float64 { return r.mean[id] }

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
	gateDelayInto(d, id, &c)
	return c
}

// gateDelayInto computes the gate-delay form into c, whose Sens must
// already have length NumPC — the allocation-free variant the
// incremental timer's hot loop uses.
func gateDelayInto(d *core.Design, id int, c *Canonical) {
	g := d.Circuit.Gate(id)
	if g.Type == logic.Input {
		c.Mean, c.Rand = 0, 0
		for k := range c.Sens {
			c.Sens[k] = 0
		}
		return
	}
	gateDelayIntoAt(d, id, d.Load(id), c)
}

// gateDelayIntoAt is gateDelayInto at a caller-supplied load (the
// incremental timer caches loads across updates); id must not be a
// primary input.
func gateDelayIntoAt(d *core.Design, id int, load float64, c *Canonical) {
	vm := d.Var
	g := d.Circuit.Gate(id)
	mean, dPerNm, dPerV := d.GateDelayAndDerivsAt(id, load)
	c.Mean = mean
	loads := vm.Loads(g.X, g.Y)
	for k, a := range loads {
		c.Sens[k] = dPerNm * a
	}
	indL := dPerNm * vm.SigmaIndNm()
	indV := dPerV * vm.SigmaVthInd()
	c.Rand = math.Sqrt(indL*indL + indV*indV)
}

// metFull counts full block-based analyses; its ratio to
// statleak_ssta_incremental_updates_total is the incremental timer's
// amortization factor.
var metFull = obs.Default.Counter("statleak_ssta_full_analyses_total",
	"full block-based SSTA runs (initial builds and periodic refreshes)")

// Analyze runs block-based SSTA over the design and returns the
// canonical arrival forms and the circuit-delay form.
func Analyze(d *core.Design) (*Result, error) {
	metFull.Inc()
	order, err := d.Circuit.TopoOrder()
	if err != nil {
		return nil, err
	}
	n := d.Circuit.NumNodes()
	numPC := d.Var.NumPC
	r := newResult(n, numPC)
	for _, id := range order {
		g := d.Circuit.Gate(id)
		switch g.Type {
		case logic.Input:
			// The row is already zero — a deterministic t=0 arrival.
			continue
		case logic.Dff:
			// Launch point: the clock edge plus the (variational)
			// clock-to-Q delay; the data-pin arrival constrains the
			// endpoint fold below, not this node.
			r.setArrival(id, GateDelayCanonical(d, id))
			continue
		}
		var in Canonical
		switch len(g.Fanin) {
		case 1:
			in = r.Arrival(g.Fanin[0])
		default:
			in = r.Arrival(g.Fanin[0])
			for _, f := range g.Fanin[1:] {
				in = Max(in, r.Arrival(f))
			}
		}
		r.setArrival(id, Add(in, GateDelayCanonical(d, id)))
	}
	// Circuit delay: statistical max over all timing endpoints —
	// primary outputs, and flip-flop data pins shifted by the setup
	// time (the minimum clock period for sequential circuits).
	setup := d.Lib.P.DffSetupPs
	var endpoints []Canonical
	for _, o := range d.Circuit.Outputs() {
		endpoints = append(endpoints, r.Arrival(o))
	}
	for _, f := range d.Circuit.Dffs() {
		capture := r.Arrival(d.Circuit.Gate(f).Fanin[0]).Clone()
		capture.Mean += setup
		endpoints = append(endpoints, capture)
	}
	r.Delay = MaxAll(endpoints)
	return r, nil
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

// YieldConstraintDelay returns the Tmax that would achieve the target
// yield: the eta-quantile of the delay distribution.
func (r *Result) YieldConstraintDelay(eta float64) float64 {
	return r.Quantile(eta)
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
	kappa := stats.NormalQuantile(eta)
	tEff := tmax - kappa*r.Delay.Sigma()
	n := d.Circuit.NumNodes()
	req := make([]float64, n)
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
	gd := make([]float64, n)
	for _, id := range order {
		if d.Circuit.Gate(id).Type != logic.Input {
			gd[id] = d.GateDelay(id)
		}
	}
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
	slack := make([]float64, n)
	for i := range slack {
		slack[i] = req[i] - r.mean[i]
	}
	return slack, nil
}

var inf = 1e300
