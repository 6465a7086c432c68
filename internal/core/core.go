// Package core defines the central object of the library: a Design —
// a circuit bound to a technology library and a variation model, with
// a per-gate implementation assignment (Vth class and drive size).
// Everything downstream (deterministic STA, SSTA, statistical leakage,
// Monte Carlo, and both optimizers) evaluates a Design.
package core

import (
	"fmt"

	"repro/internal/logic"
	"repro/internal/tech"
	"repro/internal/variation"
)

// Design couples a netlist with its electrical implementation state.
// The Circuit, Lib and Var fields are shared, immutable context; Vth
// and Size are the mutable per-node assignment the optimizers search
// over (entries for Input pseudo-gates are ignored).
type Design struct {
	Circuit *logic.Circuit
	Lib     *tech.Library
	Var     *variation.Model

	Vth  []tech.VthClass
	Size []float64

	// BiasVth is an optional per-node threshold shift [V] from body
	// bias (positive = reverse bias, slower and less leaky). It is
	// corner context, not assignment: CornerView sets it, moves never
	// touch it, and nil means the unbiased nominal evaluation path.
	BiasVth []float64

	isOut []bool // precomputed primary-output membership per node
}

// NewDesign creates a design with every gate at low Vth and the
// smallest library size — the fast, leaky starting point both
// optimizers refine.
func NewDesign(c *logic.Circuit, lib *tech.Library, vm *variation.Model) (*Design, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	n := c.NumNodes()
	d := &Design{
		Circuit: c,
		Lib:     lib,
		Var:     vm,
		Vth:     make([]tech.VthClass, n),
		Size:    make([]float64, n),
		isOut:   make([]bool, n),
	}
	for i := range d.Size {
		d.Size[i] = lib.Sizes[0]
	}
	for _, o := range c.Outputs() {
		d.isOut[o] = true
	}
	return d, nil
}

// Clone copies the assignment; circuit, library, variation model and
// body-bias vector are shared (they are immutable).
func (d *Design) Clone() *Design {
	return &Design{
		Circuit: d.Circuit,
		Lib:     d.Lib,
		Var:     d.Var,
		Vth:     append([]tech.VthClass(nil), d.Vth...),
		Size:    append([]float64(nil), d.Size...),
		BiasVth: d.BiasVth,
		isOut:   d.isOut,
	}
}

// CornerView returns a corner-indexed view of the design: the SAME
// Vth/Size assignment arrays (aliased — a move applied through either
// view is immediately visible in both) evaluated against a different
// library (temperature/supply corner) and an optional per-node
// body-bias threshold shift. The caller must hand the view to exactly
// one evaluation context (engine.Family owns this invariant).
func (d *Design) CornerView(lib *tech.Library, biasVth []float64) (*Design, error) {
	if lib == nil {
		lib = d.Lib
	}
	if len(lib.Sizes) != len(d.Lib.Sizes) {
		return nil, fmt.Errorf("core: corner library ladder has %d sizes, base has %d",
			len(lib.Sizes), len(d.Lib.Sizes))
	}
	if biasVth != nil && len(biasVth) != d.Circuit.NumNodes() {
		return nil, fmt.Errorf("core: bias vector has %d entries for %d nodes",
			len(biasVth), d.Circuit.NumNodes())
	}
	return &Design{
		Circuit: d.Circuit,
		Lib:     lib,
		Var:     d.Var,
		Vth:     d.Vth,
		Size:    d.Size,
		BiasVth: biasVth,
		isOut:   d.isOut,
	}, nil
}

// CopyAssignmentFrom overwrites this design's assignment with src's.
// Both must wrap the same circuit.
func (d *Design) CopyAssignmentFrom(src *Design) {
	copy(d.Vth, src.Vth)
	copy(d.Size, src.Size)
}

// SetVth assigns a threshold class to a gate.
func (d *Design) SetVth(id int, v tech.VthClass) error {
	if !v.Valid() {
		return fmt.Errorf("core: invalid Vth class %d", uint8(v))
	}
	d.Vth[id] = v
	return nil
}

// SetSize assigns a drive size to a gate; the size must be on the
// library ladder.
func (d *Design) SetSize(id int, s float64) error {
	if d.Lib.SizeIndex(s) < 0 {
		return fmt.Errorf("core: size %g not in library ladder %v", s, d.Lib.Sizes)
	}
	d.Size[id] = s
	return nil
}

// SizeIndex returns the ladder index of gate id's current size (−1 if
// the size is somehow off the ladder, which SetSize prevents).
func (d *Design) SizeIndex(id int) int { return d.Lib.SizeIndex(d.Size[id]) }

// SetSizeIndex assigns the ladder size at index idx to gate id.
func (d *Design) SetSizeIndex(id, idx int) error {
	if idx < 0 || idx >= len(d.Lib.Sizes) {
		return fmt.Errorf("core: size index %d outside ladder [0,%d)", idx, len(d.Lib.Sizes))
	}
	d.Size[id] = d.Lib.Sizes[idx]
	return nil
}

// IsOutput reports whether node id is a primary output (O(1)).
func (d *Design) IsOutput(id int) bool { return d.isOut[id] }

// Load returns the capacitive load [fF] a gate drives: the input
// capacitance of every fanout pin connected to it, lumped wire
// capacitance per fanout connection, and the primary-output load if
// the gate feeds a PO.
func (d *Design) Load(id int) float64 {
	c := d.Circuit
	g := c.Gate(id)
	load := 0.0
	for _, s := range g.Fanout {
		sink := c.Gate(s)
		pins := 0
		for _, f := range sink.Fanin {
			if f == id {
				pins++
			}
		}
		load += float64(pins) * d.Lib.InputCap(sink.Type, d.Size[s])
		load += d.Lib.P.WireCapPerFanoutFF
	}
	if d.isOut[id] {
		load += d.Lib.P.POLoadFF
	}
	return load
}

// GateDelay returns the nominal delay [ps] of node id under the
// current assignment (0 for primary inputs). In a biased corner view
// "nominal" means at the corner's body-bias point.
func (d *Design) GateDelay(id int) float64 { return d.GateDelayAt(id, d.Load(id)) }

// GateDelayAt is GateDelay evaluated at a caller-supplied load, for
// callers that already hold the gate's (pure) load sum.
func (d *Design) GateDelayAt(id int, load float64) float64 {
	g := d.Circuit.Gate(id)
	if d.BiasVth != nil {
		return d.Lib.DelayWith(g.Type, d.Vth[id], d.Size[id], load, 0, d.BiasVth[id])
	}
	return d.Lib.Delay(g.Type, d.Vth[id], d.Size[id], load)
}

// GateLeakAs evaluates node id's subthreshold and gate-tunneling
// leakage [nW] as if it had Vth class v and drive size s. The
// assignment is not touched; each value is bitwise what GateSubLeak
// and GateGateLeak return once the gate is set to (v, s).
func (d *Design) GateLeakAs(id int, v tech.VthClass, s float64) (subNW, gateNW float64) {
	return d.subLeakAs(id, v, s), d.Lib.GateLeak(d.Circuit.Gate(id).Type, s)
}

// GateDelayWith returns the exact delay [ps] under parameter
// excursions (ΔLeff in nm, independent ΔVth in V) — the Monte Carlo
// model. Body bias adds to the threshold excursion.
func (d *Design) GateDelayWith(id int, dLnm, dVthV float64) float64 {
	return d.GateDelayWithAt(id, d.Load(id), dLnm, dVthV)
}

// GateDelayWithAt is GateDelayWith evaluated at a caller-supplied load,
// for callers that already hold the gate's (pure) load sum.
func (d *Design) GateDelayWithAt(id int, load, dLnm, dVthV float64) float64 {
	g := d.Circuit.Gate(id)
	if d.BiasVth != nil {
		dVthV += d.BiasVth[id]
	}
	return d.Lib.DelayWith(g.Type, d.Vth[id], d.Size[id], load, dLnm, dVthV)
}

// GateDelayAndDerivsAt returns the nominal delay [ps] of node id at a
// caller-supplied load together with ∂delay/∂ΔLeff [ps/nm] and
// ∂delay/∂ΔVth [ps/V] — the SSTA linearization, taken at the corner's
// bias point when the view is biased and at the nominal point
// otherwise. Callers cache the (pure) load sum.
func (d *Design) GateDelayAndDerivsAt(id int, load float64) (delayPs, dPerNm, dPerV float64) {
	g := d.Circuit.Gate(id)
	if d.BiasVth != nil {
		delayPs = d.Lib.DelayWith(g.Type, d.Vth[id], d.Size[id], load, 0, d.BiasVth[id])
		dPerNm, dPerV = d.Lib.DelayDerivsWith(g.Type, d.Vth[id], d.Size[id], load, d.BiasVth[id])
		return
	}
	delayPs = d.Lib.Delay(g.Type, d.Vth[id], d.Size[id], load)
	dPerNm, dPerV = d.Lib.DelayDerivs(g.Type, d.Vth[id], d.Size[id], load)
	return
}

// GateLeak returns the nominal leakage power [nW] of node id.
func (d *Design) GateLeak(id int) float64 {
	g := d.Circuit.Gate(id)
	if d.BiasVth != nil {
		return d.Lib.SubLeakWith(g.Type, d.Vth[id], d.Size[id], d.BiasVth[id]) +
			d.Lib.GateLeak(g.Type, d.Size[id])
	}
	return d.Lib.Leak(g.Type, d.Vth[id], d.Size[id])
}

// GateSubLeak returns the process-sensitive subthreshold component
// [nW].
func (d *Design) GateSubLeak(id int) float64 { return d.subLeakAs(id, d.Vth[id], d.Size[id]) }

func (d *Design) subLeakAs(id int, v tech.VthClass, s float64) float64 {
	g := d.Circuit.Gate(id)
	if d.BiasVth != nil {
		return d.Lib.SubLeakWith(g.Type, v, s, d.BiasVth[id])
	}
	return d.Lib.SubLeak(g.Type, v, s)
}

// GateGateLeak returns the Vth-independent gate-tunneling component
// [nW].
func (d *Design) GateGateLeak(id int) float64 {
	g := d.Circuit.Gate(id)
	return d.Lib.GateLeak(g.Type, d.Size[id])
}

// TotalLeak returns the nominal total leakage [nW].
func (d *Design) TotalLeak() float64 {
	sum := 0.0
	for _, g := range d.Circuit.Gates() {
		if g.Type == logic.Input {
			continue
		}
		sum += d.GateLeak(g.ID)
	}
	return sum
}

// CountHVT returns how many logic gates are assigned the high-Vth
// flavor.
func (d *Design) CountHVT() int {
	n := 0
	for _, g := range d.Circuit.Gates() {
		if g.Type != logic.Input && d.Vth[g.ID] == tech.HighVth {
			n++
		}
	}
	return n
}

// AvgSize returns the mean drive size over logic gates.
func (d *Design) AvgSize() float64 {
	sum, n := 0.0, 0
	for _, g := range d.Circuit.Gates() {
		if g.Type == logic.Input {
			continue
		}
		sum += d.Size[g.ID]
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
