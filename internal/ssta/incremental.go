package ssta

import (
	"math"

	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/obs"
)

// Instrumentation: incremental-vs-full retiming volume (see
// internal/obs and DESIGN.md §"Service layer"). The full-analysis
// counter (ssta.go) counts every Reset, and so every Analyze; together
// they expose the engine's cone-pruning win as a ratio any scraper can
// graph. Undos count the updates rolled back by restoring rows instead
// of re-timing.
var (
	metIncUpdates = obs.Default.Counter("statleak_ssta_incremental_updates_total",
		"incremental (cone-local) retimings performed")
	metIncNodes = obs.Default.Counter("statleak_ssta_incremental_nodes_retimed_total",
		"nodes re-evaluated across all incremental retimings")
	metIncUndos = obs.Default.Counter("statleak_ssta_incremental_undos_total",
		"incremental retimings rolled back by restoring the rows they overwrote")
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
// float slices). Update folds each node's max chain in place through
// per-timer scratch forms and refolds the circuit delay into a
// timer-owned buffer, and Reset re-runs the full analysis in the same
// rows, so neither allocates.
type Incremental struct {
	d        *core.Design
	order    []int
	pos      []int  // topo position per node
	endpoint []bool // rows the circuit-delay fold reads (POs + DFF data pins)
	res      *Result

	// Scratch state reused across passes: the candidate form and the
	// gate-delay form of the node being evaluated, the two buffers
	// Result.Delay.Sens alternates between (see refold), the per-node
	// pending flags of the sweep (all false between Updates), and the
	// required times of StatisticalSlack.
	next, gd Canonical
	delayBuf [2][]float64
	dirty    []bool
	req      []float64

	// Per-node memo of the fanout load and of the scalars the
	// gate-delay form is built from (see gateDelayScalars). Each entry
	// is the pure function of the design the uncached call computes,
	// so it stays bitwise exact until the node's own assignment or a
	// fanout sink's size changes; Update and Undo drop the entries of
	// every changed gate and of its fanins, the only ones a move can
	// perturb, and Reset drops them all. Entries are filled on demand.
	load, delay, dPerNm, rnd []float64
	memoOK                   []bool

	// One-deep undo record of the last Update, when it was seeded with
	// a single gate (undoID; -1 otherwise): the rows it overwrote, in
	// write order, and the circuit-delay form before it. An Update
	// writes each row at most once, so NewIncremental sizes the record
	// for every row and it never regrows. A clone's record starts empty
	// and grows to the cones its updates touch.
	undoID    int
	undoRows  []savedRow
	undoSens  []float64 // len(undoRows)×NumPC
	undoDelay Canonical
}

// savedRow is an arrival row's scalars as an Update found them.
type savedRow struct {
	id         int
	mean, rand float64
}

// newTimer allocates a timer for d over the topological order with
// the buffers the forward pass needs: the rows, the scratch forms, the
// circuit-delay buffers and the memo. Update and Undo need the rest
// (see NewIncremental).
func newTimer(d *core.Design, order []int) *Incremental {
	n, k := d.Circuit.NumNodes(), d.Var.NumPC
	return &Incremental{
		d: d, order: order, res: newResult(n, k),
		next: NewCanonical(0, k), gd: NewCanonical(0, k),
		delayBuf: [2][]float64{make([]float64, k), make([]float64, k)},
		load:     make([]float64, n), delay: make([]float64, n),
		dPerNm: make([]float64, n), rnd: make([]float64, n),
		memoOK: make([]bool, n),
		undoID: -1,
	}
}

// NewIncremental allocates a timer for d and runs the full analysis
// (Reset) into it.
func NewIncremental(d *core.Design) (*Incremental, error) {
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
	inc := newTimer(d, order)
	inc.initUpdate(pos, endpoint)
	n, k := d.Circuit.NumNodes(), d.Var.NumPC
	inc.undoRows = make([]savedRow, 0, n)
	inc.undoSens = make([]float64, 0, n*k)
	inc.Reset()
	return inc, nil
}

// initUpdate gives the timer what Update and Undo need beyond the
// forward pass. It leaves the undo record empty for Update to grow;
// NewIncremental sizes it up front.
func (inc *Incremental) initUpdate(pos []int, endpoint []bool) {
	n := len(inc.res.mean)
	inc.pos, inc.endpoint = pos, endpoint
	inc.dirty = make([]bool, n)
	inc.req = make([]float64, n)
}

// Reset re-runs the full analysis of the tracked design in the timer's
// own rows: every node in topological order, with no convergence
// cut-off, then the circuit-delay fold — the arithmetic Analyze does,
// step for step, so the rows and Delay are bitwise a fresh Analyze's.
// It drops the memo and the undo record, and allocates nothing. The
// topological order and the timing endpoints are the construction's:
// Reset follows a changed Vth/size assignment, not a changed netlist.
func (inc *Incremental) Reset() {
	metFull.Inc()
	clear(inc.memoOK)
	inc.undoID = -1
	c := inc.d.Circuit
	for _, id := range inc.order {
		if c.Gate(id).Type == logic.Input {
			continue // the row stays zero: a deterministic t=0 arrival
		}
		inc.eval(id)
		inc.res.setArrival(id, inc.next)
	}
	inc.refold()
}

// memo fills node id's memo entry on a miss. Primary inputs keep a
// zero delay.
func (inc *Incremental) memo(id int) {
	if inc.memoOK[id] {
		return
	}
	d := inc.d
	load := d.Load(id)
	inc.load[id] = load
	if d.Circuit.Gate(id).Type != logic.Input {
		inc.delay[id], inc.dPerNm[id], inc.rnd[id] = gateDelayScalars(d, id, load)
	}
	inc.memoOK[id] = true
}

// forget drops the memo entries a change of gate id can perturb: its
// own delay and its fanins' loads and delays.
func (inc *Incremental) forget(id int) {
	inc.memoOK[id] = false
	for _, f := range inc.d.Circuit.Gate(id).Fanin {
		inc.memoOK[f] = false
	}
}

// LoadDelay returns node id's fanout load [fF] and nominal gate delay
// [ps] from the memo: bitwise what Design.Load and Design.GateDelay
// return for the design the timer tracks. The delay of a primary
// input is 0.
func (inc *Incremental) LoadDelay(id int) (loadFF, delayPs float64) {
	inc.memo(id)
	return inc.load[id], inc.delay[id]
}

// Result returns the current timing view. The caller must treat it as
// read-only; it is refreshed in place by Update, Undo and Reset.
func (inc *Incremental) Result() *Result { return inc.res }

// CloneFor returns an independent copy of the timing state bound to d,
// which must be a clone of the original design in the same assignment
// state (no re-analysis is performed). The topological order is shared
// (it depends only on the circuit); the arrival state is three bulk
// slice copies thanks to the flat layout, so the clone can Update
// without disturbing the original. The clone starts with an empty memo
// and no undo record; its record grows to the cones its updates touch,
// so a throwaway scoring clone does not pay for one sized for every
// row.
func (inc *Incremental) CloneFor(d *core.Design) *Incremental {
	c := newTimer(d, inc.order)
	c.initUpdate(inc.pos, inc.endpoint)
	copy(c.res.mean, inc.res.mean)
	copy(c.res.rand, inc.res.rand)
	copy(c.res.sens, inc.res.sens)
	if dl := inc.res.Delay; dl.Sens != nil {
		c.res.Delay = Canonical{Mean: dl.Mean, Sens: c.delayBuf[0], Rand: dl.Rand}
		copy(c.res.Delay.Sens, dl.Sens)
	}
	return c
}

// StatisticalSlack is Result.StatisticalSlack for the tracked design,
// with the gate delays read from the memo. It writes the slacks into
// dst, reallocating it only when its capacity is short, and returns
// it; the values are bitwise those of Result.StatisticalSlack.
func (inc *Incremental) StatisticalSlack(tmax, eta float64, dst []float64) []float64 {
	n := len(inc.res.mean)
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	for id := range inc.memoOK {
		inc.memo(id)
	}
	inc.res.slackInto(inc.d, inc.order, inc.delay, tmax, eta, inc.req, dst)
	return dst
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
//
// An Update seeded with one gate records the rows it overwrites, so
// Undo can roll it back.
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
		inc.forget(id)
		seed(id)
		// Drivers see a different load if this gate's size changed;
		// re-seeding them unconditionally is cheap and always safe.
		for _, f := range c.Gate(id).Fanin {
			if c.Gate(f).Type != logic.Input {
				seed(f)
			}
		}
	}
	inc.undoID = -1
	if len(changed) == 1 {
		inc.undoID = changed[0]
	}
	inc.undoRows = inc.undoRows[:0]
	inc.undoSens = inc.undoSens[:0]
	inc.undoDelay = inc.res.Delay

	res := inc.res
	k := res.NumPC
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
		inc.eval(id)
		if canonicalEqual(*next, res.Arrival(id)) {
			continue // cone converged: nothing downstream can change
		}
		if inc.undoID >= 0 {
			inc.undoRows = append(inc.undoRows, savedRow{id, res.mean[id], res.rand[id]})
			inc.undoSens = append(inc.undoSens, res.sens[id*k:(id+1)*k]...)
		}
		res.setArrival(id, *next)
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

// eval writes node id's arrival form into the scratch form next: for
// a flip-flop (a launch point) its clock-to-Q delay form; otherwise
// the statistical max of its fanins' rows, folded left to right, plus
// its gate-delay form. id must not be a primary input.
func (inc *Incremental) eval(id int) {
	d, res, next := inc.d, inc.res, &inc.next
	g := d.Circuit.Gate(id)
	inc.memo(id)
	if g.Type == logic.Dff {
		gateDelayForm(d, id, inc.delay[id], inc.dPerNm[id], inc.rnd[id], next)
		return
	}
	copyInto(next, res.Arrival(g.Fanin[0]))
	for _, f := range g.Fanin[1:] {
		maxInto(next, *next, res.Arrival(f))
	}
	gateDelayForm(d, id, inc.delay[id], inc.dPerNm[id], inc.rnd[id], &inc.gd)
	next.Mean += inc.gd.Mean
	gs := inc.gd.Sens[:len(next.Sens)]
	for k := range next.Sens {
		next.Sens[k] += gs[k]
	}
	next.Rand = math.Hypot(next.Rand, inc.gd.Rand)
}

// Undo rolls back the last Update when that Update was seeded with
// gate id alone and nothing has been updated since: it writes back the
// rows and the circuit-delay form the Update overwrote, and drops the
// memo entries the change touched. The caller must first have
// restored gate id's assignment to what it was before that Update;
// the timing view is then the one the Update started from, bit for
// bit. Undo reports false, and changes nothing, in every other case;
// the caller then re-times with Update. The record is one deep: an
// Undo consumes it.
func (inc *Incremental) Undo(id int) bool {
	if id < 0 || id != inc.undoID {
		return false
	}
	inc.undoID = -1
	res := inc.res
	k := res.NumPC
	for i, r := range inc.undoRows {
		res.mean[r.id], res.rand[r.id] = r.mean, r.rand
		copy(res.sens[r.id*k:(r.id+1)*k], inc.undoSens[i*k:(i+1)*k])
	}
	res.Delay = inc.undoDelay
	inc.forget(id)
	metIncUndos.Inc()
	return true
}

// refold recomputes the circuit-delay form from the endpoint arrivals:
// the statistical max over the primary outputs, then the flip-flop
// data pins shifted by the setup time, folded in that order. The fold
// runs in place in whichever of the two delay buffers Result.Delay
// does not hold — during an Update, the one the undo record does not
// hold — so the form Undo restores is never overwritten.
func (inc *Incremental) refold() {
	d := inc.d
	setup := d.Lib.P.DffSetupPs
	acc := Canonical{Sens: inc.delayBuf[0]}
	if s := inc.res.Delay.Sens; len(s) > 0 && &s[0] == &acc.Sens[0] {
		acc.Sens = inc.delayBuf[1]
	}
	set := false
	for _, o := range d.Circuit.Outputs() {
		if !set {
			copyInto(&acc, inc.res.Arrival(o))
			set = true
		} else {
			maxInto(&acc, acc, inc.res.Arrival(o))
		}
	}
	for _, f := range d.Circuit.Dffs() {
		capture := inc.res.Arrival(d.Circuit.Gate(f).Fanin[0])
		captureMean := capture.Mean + setup
		if !set {
			copyInto(&acc, capture)
			acc.Mean = captureMean
			set = true
		} else {
			maxInto(&acc, acc, Canonical{Mean: captureMean, Sens: capture.Sens, Rand: capture.Rand})
		}
	}
	if !set {
		inc.res.Delay = Canonical{}
		return
	}
	inc.res.Delay = acc
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
