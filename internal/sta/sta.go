// Package sta implements deterministic (corner/nominal) static timing
// analysis over a Design: arrival times, required times, slacks, the
// critical path, and a fast arrival-only evaluation used per Monte
// Carlo sample. It is the timing engine of the deterministic baseline
// optimizer the paper compares against.
package sta

import (
	"math"

	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/stats"
)

// Result holds a full timing analysis.
type Result struct {
	// Arrival[i] is the latest signal arrival time [ps] at the output
	// of node i (0 at primary inputs; clock-to-Q at flip-flops).
	Arrival []float64
	// Required[i] is the latest allowed arrival [ps] at node i's output
	// for the circuit to meet the constraint Tmax.
	Required []float64
	// Slack[i] = Required[i] − Arrival[i].
	Slack []float64
	// MaxDelay is the largest endpoint arrival [ps]: over primary
	// outputs, and over flip-flop data pins including the setup time
	// (i.e. the minimum feasible clock period for sequential
	// circuits).
	MaxDelay float64
	// WorstOutput is the endpoint node achieving MaxDelay — a PO, or
	// the capturing flip-flop.
	WorstOutput int
}

// Analyze runs STA at the nominal process point with the given delay
// constraint Tmax [ps] (used only for required times/slacks; pass
// MaxDelay for zero-slack normalization).
func Analyze(d *core.Design, tmax float64) (*Result, error) {
	return analyzeAt(d, tmax, 0, 0)
}

// AnalyzeCorner runs STA with every gate evaluated at a pessimistic
// process corner: the systematic (die-to-die plus spatially
// correlated) channel-length variation pushed k sigmas slow,
// simultaneously for all gates. This is the classic worst-case corner
// methodology the deterministic baseline optimizer designs against —
// and whose pessimism the statistical optimizer recovers. Independent
// per-gate variation (which averages out along paths and is not in
// corner files) is not included.
func AnalyzeCorner(d *core.Design, tmax, k float64) (*Result, error) {
	dL, dV := CornerOffsets(d, k)
	return analyzeAt(d, tmax, dL, dV)
}

// CornerOffsets returns the (ΔLeff [nm], ΔVth [V]) excursion of the
// k-sigma slow systematic corner for the design's variation model.
func CornerOffsets(d *core.Design, k float64) (dLnm, dVthV float64) {
	cfg := d.Var.Cfg
	return k * math.Sqrt(cfg.FracD2D+cfg.FracCorr) * cfg.SigmaLNm, 0
}

func analyzeAt(d *core.Design, tmax, dLnm, dVthV float64) (*Result, error) {
	n := d.Circuit.NumNodes()
	delays := make([]float64, n)
	for _, g := range d.Circuit.Gates() {
		if g.Type == logic.Input {
			continue
		}
		if stats.EqZero(dLnm) && stats.EqZero(dVthV) {
			delays[g.ID] = d.GateDelay(g.ID)
		} else {
			delays[g.ID] = d.GateDelayWith(g.ID, dLnm, dVthV)
		}
	}
	return AnalyzeDelays(d.Circuit, delays, tmax, d.Lib.P.DffSetupPs)
}

// AnalyzeDelays runs full STA over an externally supplied per-node
// delay vector. Flip-flops launch at their clock-to-Q (delays[dff])
// and capture at their data pins with the given setup margin; a
// sequential circuit's MaxDelay is therefore its minimum clock
// period.
func AnalyzeDelays(c *logic.Circuit, delays []float64, tmax, dffSetupPs float64) (*Result, error) {
	order, err := c.TopoOrder()
	if err != nil {
		return nil, err
	}
	r := &Result{}
	AnalyzeInto(r, c, order, delays, tmax, dffSetupPs)
	return r, nil
}

// AnalyzeInto is AnalyzeDelays writing into r, whose slices are reused
// when their capacity suffices; order must be a topological order of
// the circuit. Every field of r is overwritten, so r's previous
// contents never leak into the result.
func AnalyzeInto(r *Result, c *logic.Circuit, order []int, delays []float64, tmax, dffSetupPs float64) {
	n := c.NumNodes()
	r.Arrival = resize(r.Arrival, n)
	r.Required = resize(r.Required, n)
	r.Slack = resize(r.Slack, n)
	r.MaxDelay, r.WorstOutput = 0, -1
	for _, id := range order {
		g := c.Gate(id)
		switch g.Type {
		case logic.Input:
			r.Arrival[id] = 0
			continue
		case logic.Dff:
			r.Arrival[id] = delays[id] // launch: clock edge + clk-to-Q
			continue
		}
		at := 0.0
		for _, f := range g.Fanin {
			if r.Arrival[f] > at {
				at = r.Arrival[f]
			}
		}
		r.Arrival[id] = at + delays[id]
	}
	for _, o := range c.Outputs() {
		if r.Arrival[o] >= r.MaxDelay {
			r.MaxDelay = r.Arrival[o]
			r.WorstOutput = o
		}
	}
	for _, f := range c.Dffs() {
		capture := r.Arrival[c.Gate(f).Fanin[0]] + dffSetupPs
		if capture >= r.MaxDelay {
			r.MaxDelay = capture
			r.WorstOutput = f
		}
	}
	// Required times: backward pass in reverse topological order.
	for i := range r.Required {
		r.Required[i] = math.Inf(1)
	}
	for _, o := range c.Outputs() {
		if tmax < r.Required[o] {
			r.Required[o] = tmax
		}
	}
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		g := c.Gate(id)
		req := r.Required[id]
		for _, s := range g.Fanout {
			var v float64
			if c.Gate(s).Type == logic.Dff {
				v = tmax - dffSetupPs // capture at the D pin
			} else {
				v = r.Required[s] - delays[s]
			}
			if v < req {
				req = v
			}
		}
		r.Required[id] = req
	}
	for i := range r.Slack {
		r.Slack[i] = r.Required[i] - r.Arrival[i]
	}
}

// resize returns s with length n, reallocated only when its capacity
// is short.
func resize(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// CriticalPath walks back from the worst endpoint along the
// latest-arriving fanins. It writes the node IDs, from a launch point
// (a primary input or a flip-flop Q pin) to the worst endpoint (a PO
// or the capturing flip-flop), into dst[:0] and returns them.
func (r *Result) CriticalPath(d *core.Design, dst []int) []int {
	rev := dst[:0]
	if r.WorstOutput < 0 {
		return rev
	}
	id := r.WorstOutput
	for first := true; ; first = false {
		rev = append(rev, id)
		g := d.Circuit.Gate(id)
		if len(g.Fanin) == 0 || (g.Type == logic.Dff && !first) {
			break // launch point reached
		}
		best := g.Fanin[0]
		for _, f := range g.Fanin[1:] {
			if r.Arrival[f] > r.Arrival[best] {
				best = f
			}
		}
		id = best
	}
	// reverse in place
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// MaxDelayWithDelays computes the circuit max endpoint delay [ps] for
// an externally supplied per-node delay vector (Monte Carlo's inner
// loop), with flip-flops launching at delays[dff] and capturing with
// the given setup margin. order must be a topological order of the
// circuit; scratch, if non-nil and large enough, is reused for
// arrivals to avoid allocation.
func MaxDelayWithDelays(c *logic.Circuit, order []int, delays, scratch []float64, dffSetupPs float64) float64 {
	var arr []float64
	if cap(scratch) >= c.NumNodes() {
		arr = scratch[:c.NumNodes()]
		for i := range arr {
			arr[i] = 0
		}
	} else {
		arr = make([]float64, c.NumNodes())
	}
	for _, id := range order {
		g := c.Gate(id)
		switch g.Type {
		case logic.Input:
			continue
		case logic.Dff:
			arr[id] = delays[id]
			continue
		}
		at := 0.0
		for _, f := range g.Fanin {
			if arr[f] > at {
				at = arr[f]
			}
		}
		arr[id] = at + delays[id]
	}
	max := 0.0
	for _, o := range c.Outputs() {
		if arr[o] > max {
			max = arr[o]
		}
	}
	for _, f := range c.Dffs() {
		if v := arr[c.Gate(f).Fanin[0]] + dffSetupPs; v > max {
			max = v
		}
	}
	return max
}
