package ssta

import (
	"math"

	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/obs"
)

// Instrumentation: incremental-vs-full retiming volume (see
// internal/obs and DESIGN.md §"Service layer"). The full-analysis
// counter lives in Analyze (ssta.go); together they expose the
// engine's cone-pruning win as a ratio any scraper can graph.
var (
	metIncUpdates = obs.Default.Counter("statleak_ssta_incremental_updates_total",
		"incremental (cone-local) retimings performed")
	metIncNodes = obs.Default.Counter("statleak_ssta_incremental_nodes_retimed_total",
		"nodes re-evaluated across all incremental retimings")
)

// Incremental maintains a statistical timing view of a design and
// updates it after gate changes by recomputing only the affected
// fanout cones — the engine style production timers (and optimizer
// inner loops) use instead of re-running block-based SSTA from
// scratch. Equivalence with the full analysis is exact (same
// canonical operations in the same topological order); only
// propagation is pruned, and only where an arrival form is bitwise
// unchanged within tolerance.
//
// The arrival state lives structure-of-arrays in Result (three flat
// float slices), and Update folds each node's max chain in place
// through per-timer scratch forms, so a steady-state retiming
// allocates only the refolded circuit-delay form.
type Incremental struct {
	d        *core.Design
	order    []int
	pos      []int  // topo position per node
	endpoint []bool // rows the circuit-delay fold reads (POs + DFF data pins)
	res      *Result

	// Scratch state reused across Updates: the candidate form and the
	// gate-delay form of the node being re-evaluated, the endpoint
	// fold accumulator, and the per-node pending flags of the sweep
	// (all false between Updates).
	next, gd, fold Canonical
	dirty          []bool

	// loadPs memoizes Design.Load per node — a pure function of the
	// fanout sinks' sizes, so entries stay bitwise exact until a sink
	// changes; Update invalidates the fanins of every changed gate
	// (the only loads a move can perturb) before re-timing.
	loadPs []float64
	loadOK []bool
}

// NewIncremental runs one full analysis and wraps it for updates.
func NewIncremental(d *core.Design) (*Incremental, error) {
	res, err := Analyze(d)
	if err != nil {
		return nil, err
	}
	order, err := d.Circuit.TopoOrder()
	if err != nil {
		return nil, err
	}
	pos := make([]int, d.Circuit.NumNodes())
	for i, id := range order {
		pos[id] = i
	}
	endpoint := make([]bool, d.Circuit.NumNodes())
	for _, o := range d.Circuit.Outputs() {
		endpoint[o] = true
	}
	for _, f := range d.Circuit.Dffs() {
		endpoint[d.Circuit.Gate(f).Fanin[0]] = true
	}
	inc := &Incremental{d: d, order: order, pos: pos, endpoint: endpoint, res: res}
	inc.initScratch()
	return inc, nil
}

func (inc *Incremental) initScratch() {
	k := inc.res.NumPC
	inc.next = NewCanonical(0, k)
	inc.gd = NewCanonical(0, k)
	inc.fold = NewCanonical(0, k)
	inc.dirty = make([]bool, len(inc.res.mean))
	inc.loadPs = make([]float64, len(inc.res.mean))
	inc.loadOK = make([]bool, len(inc.res.mean))
}

// loadOf returns the cached fanout load of node id, computing it on a
// miss. The cached value is the same pure function Design.Load would
// return, so reuse is bitwise neutral.
func (inc *Incremental) loadOf(id int) float64 {
	if !inc.loadOK[id] {
		inc.loadPs[id] = inc.d.Load(id)
		inc.loadOK[id] = true
	}
	return inc.loadPs[id]
}

// Result returns the current timing view. The caller must treat it as
// read-only; it is refreshed in place by Update.
func (inc *Incremental) Result() *Result { return inc.res }

// CloneFor returns an independent copy of the timing state bound to d,
// which must be a clone of the original design in the same assignment
// state (no re-analysis is performed). The topological order is shared
// (it depends only on the circuit); the arrival state is three bulk
// slice copies thanks to the flat layout, so the clone can Update
// without disturbing the original.
func (inc *Incremental) CloneFor(d *core.Design) *Incremental {
	res := &Result{
		Delay: inc.res.Delay.Clone(),
		NumPC: inc.res.NumPC,
		mean:  append([]float64(nil), inc.res.mean...),
		rand:  append([]float64(nil), inc.res.rand...),
		sens:  append([]float64(nil), inc.res.sens...),
	}
	c := &Incremental{d: d, order: inc.order, pos: inc.pos, endpoint: inc.endpoint, res: res}
	c.initScratch()
	return c
}

// Update re-times the design after the given gates changed (Vth or
// size). A size change alters the gate's own delay and its drivers'
// loads, so drivers are re-seeded too; passing the changed gate alone
// is always sufficient. Returns the number of nodes re-evaluated.
//
// Pending nodes are flagged, and the sweep walks the topological order
// from the lowest seeded position until none is pending. Every node a
// re-timing flags is a combinational fanout, which lies later in the
// order, so the sweep visits exactly the nodes a lowest-position-first
// worklist would, in the same order.
func (inc *Incremental) Update(changed ...int) int {
	d := inc.d
	c := d.Circuit
	dirty := inc.dirty
	pending, from := 0, len(inc.order)
	seed := func(id int) {
		if !dirty[id] {
			dirty[id] = true
			pending++
			from = min(from, inc.pos[id])
		}
	}
	for _, id := range changed {
		seed(id)
		// Drivers see a different load if this gate's size changed;
		// re-seeding them (and dropping their cached loads)
		// unconditionally is cheap and always safe.
		for _, f := range c.Gate(id).Fanin {
			inc.loadOK[f] = false
			if c.Gate(f).Type != logic.Input {
				seed(f)
			}
		}
	}
	visited := 0
	foldStale := false
	next := &inc.next
	for p := from; pending > 0; p++ {
		id := inc.order[p]
		if !dirty[id] {
			continue
		}
		dirty[id] = false
		pending--
		g := c.Gate(id)
		if g.Type == logic.Input {
			continue
		}
		visited++
		if g.Type == logic.Dff {
			gateDelayIntoAt(d, id, inc.loadOf(id), next)
		} else {
			copyInto(next, inc.res.Arrival(g.Fanin[0]))
			for _, f := range g.Fanin[1:] {
				maxInto(next, *next, inc.res.Arrival(f))
			}
			gateDelayIntoAt(d, id, inc.loadOf(id), &inc.gd)
			next.Mean += inc.gd.Mean
			gs := inc.gd.Sens[:len(next.Sens)]
			for k := range next.Sens {
				next.Sens[k] += gs[k]
			}
			next.Rand = math.Hypot(next.Rand, inc.gd.Rand)
		}
		if canonicalEqual(*next, inc.res.Arrival(id)) {
			continue // cone converged: nothing downstream can change
		}
		inc.res.setArrival(id, *next)
		if inc.endpoint[id] {
			foldStale = true
		}
		for _, s := range g.Fanout {
			// DFF sinks have no combinational dependence on their data
			// pin; the endpoint fold below picks up the change.
			if c.Gate(s).Type != logic.Dff && !dirty[s] {
				dirty[s] = true
				pending++
			}
		}
	}
	// Delay is a pure function of the endpoint rows (each written at
	// most once per update, in topo order), so when none of them changed
	// the refold would reproduce the current value bitwise — skip it.
	if foldStale {
		inc.refold()
	}
	metIncUpdates.Inc()
	metIncNodes.Add(uint64(visited))
	return visited
}

// refold recomputes the circuit-delay form from the endpoint
// arrivals. The fold runs in place through the scratch accumulator;
// only the final Delay value is freshly allocated, preserving the
// invariant that Result.Delay is safe to hold by value across updates.
func (inc *Incremental) refold() {
	d := inc.d
	setup := d.Lib.P.DffSetupPs
	acc := &inc.fold
	set := false
	for _, o := range d.Circuit.Outputs() {
		if !set {
			copyInto(acc, inc.res.Arrival(o))
			set = true
		} else {
			maxInto(acc, *acc, inc.res.Arrival(o))
		}
	}
	for _, f := range d.Circuit.Dffs() {
		capture := inc.res.Arrival(d.Circuit.Gate(f).Fanin[0])
		captureMean := capture.Mean + setup
		if !set {
			copyInto(acc, capture)
			acc.Mean = captureMean
			set = true
		} else {
			maxInto(acc, *acc, Canonical{Mean: captureMean, Sens: capture.Sens, Rand: capture.Rand})
		}
	}
	if !set {
		inc.res.Delay = Canonical{}
		return
	}
	inc.res.Delay = acc.Clone()
}

// canonicalEqual compares two forms within floating tolerance.
func canonicalEqual(a, b Canonical) bool {
	const tol = 1e-12
	if !close(a.Mean, b.Mean, tol) || !close(a.Rand, b.Rand, tol) {
		return false
	}
	for k := range a.Sens {
		if !close(a.Sens[k], b.Sens[k], tol) {
			return false
		}
	}
	return true
}

func close(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}
