package logic

import (
	"errors"
	"fmt"
	"sort"
)

// Circuit is a combinational gate-level netlist. Gates are stored in a
// dense slice indexed by gate ID; primary inputs are pseudo-gates of
// type Input. A circuit is a DAG: structural validation rejects
// combinational cycles.
//
// The zero Circuit is empty and ready to use; AddInput/AddGate build it
// up. Mutating the structure invalidates cached orderings, which are
// recomputed lazily.
type Circuit struct {
	Name string

	gates   []*Gate
	inputs  []int
	outputs []int
	dffs    []int
	byName  map[string]int

	// caches, invalidated by structural mutation
	topo   []int
	levels []int
	depth  int
}

// New returns an empty circuit with the given name.
func New(name string) *Circuit {
	return &Circuit{Name: name, byName: make(map[string]int)}
}

func (c *Circuit) invalidate() {
	c.topo = nil
	c.levels = nil
	c.depth = 0
}

// NumNodes returns the total node count including primary-input
// pseudo-gates.
func (c *Circuit) NumNodes() int { return len(c.gates) }

// NumGates returns the number of logic gates (excluding primary
// inputs).
func (c *Circuit) NumGates() int { return len(c.gates) - len(c.inputs) }

// NumInputs returns the number of primary inputs.
func (c *Circuit) NumInputs() int { return len(c.inputs) }

// NumOutputs returns the number of primary outputs.
func (c *Circuit) NumOutputs() int { return len(c.outputs) }

// Inputs returns the IDs of the primary inputs in creation order.
// The returned slice is owned by the circuit and must not be modified.
func (c *Circuit) Inputs() []int { return c.inputs }

// Outputs returns the IDs of the gates tapped as primary outputs.
// The returned slice is owned by the circuit and must not be modified.
func (c *Circuit) Outputs() []int { return c.outputs }

// Dffs returns the IDs of the D flip-flops in creation order. The
// returned slice is owned by the circuit and must not be modified.
func (c *Circuit) Dffs() []int { return c.dffs }

// NumDffs returns the number of flip-flops.
func (c *Circuit) NumDffs() int { return len(c.dffs) }

// Sequential reports whether the circuit contains state elements.
func (c *Circuit) Sequential() bool { return len(c.dffs) > 0 }

// Gate returns the gate with the given ID. It panics on an invalid ID;
// IDs come from the circuit itself so an invalid one is a programming
// error.
func (c *Circuit) Gate(id int) *Gate { return c.gates[id] }

// Gates returns the underlying gate slice, indexed by ID. The slice is
// owned by the circuit; callers must not grow it, but may read freely.
func (c *Circuit) Gates() []*Gate { return c.gates }

// GateByName looks a gate up by its net name.
func (c *Circuit) GateByName(name string) (*Gate, bool) {
	id, ok := c.byName[name]
	if !ok {
		return nil, false
	}
	return c.gates[id], true
}

// AddInput creates a primary-input pseudo-gate and returns its ID.
func (c *Circuit) AddInput(name string) (int, error) {
	return c.add(name, Input, nil)
}

// AddGate creates a logic gate of the given type driven by the given
// fanin IDs (in pin order) and returns its ID. The fanin count must
// match the gate type's arity and every fanin must already exist.
func (c *Circuit) AddGate(name string, t GateType, fanin ...int) (int, error) {
	return c.add(name, t, fanin)
}

// AddDff creates a D flip-flop whose data input is connected later
// with ConnectDff. Deferred connection is what allows the state
// feedback loops of sequential netlists: the DFF's driver logic may
// itself depend on the DFF's output.
func (c *Circuit) AddDff(name string) (int, error) {
	return c.add(name, Dff, nil)
}

// ConnectDff wires the data input of a flip-flop created with AddDff.
func (c *Circuit) ConnectDff(id, driver int) error {
	if id < 0 || id >= len(c.gates) || c.gates[id].Type != Dff {
		return fmt.Errorf("logic: ConnectDff: %d is not a DFF", id)
	}
	if len(c.gates[id].Fanin) != 0 {
		return fmt.Errorf("logic: ConnectDff: %q already connected", c.gates[id].Name)
	}
	if driver < 0 || driver >= len(c.gates) {
		return fmt.Errorf("logic: ConnectDff: driver %d out of range", driver)
	}
	c.gates[id].Fanin = append(c.gates[id].Fanin, driver)
	c.gates[driver].Fanout = append(c.gates[driver].Fanout, id)
	c.invalidate()
	return nil
}

func (c *Circuit) add(name string, t GateType, fanin []int) (int, error) {
	if !t.Valid() {
		return 0, fmt.Errorf("logic: invalid gate type %d", uint8(t))
	}
	if name == "" {
		return 0, errors.New("logic: empty gate name")
	}
	if _, dup := c.byName[name]; dup {
		return 0, fmt.Errorf("logic: duplicate gate name %q", name)
	}
	if got, want := len(fanin), t.Arity(); got != want {
		// A DFF may be created unconnected (AddDff) and wired later.
		if !(t == Dff && got == 0) {
			return 0, fmt.Errorf("logic: gate %q type %v needs %d fanins, got %d", name, t, want, got)
		}
	}
	for _, f := range fanin {
		if f < 0 || f >= len(c.gates) {
			return 0, fmt.Errorf("logic: gate %q fanin %d out of range", name, f)
		}
	}
	id := len(c.gates)
	g := &Gate{ID: id, Name: name, Type: t, Fanin: append([]int(nil), fanin...)}
	c.gates = append(c.gates, g)
	c.byName[name] = id
	if t == Input {
		c.inputs = append(c.inputs, id)
	}
	if t == Dff {
		c.dffs = append(c.dffs, id)
	}
	seen := make(map[int]bool, len(fanin))
	for _, f := range fanin {
		if !seen[f] {
			c.gates[f].Fanout = append(c.gates[f].Fanout, id)
			seen[f] = true
		}
	}
	c.invalidate()
	return id, nil
}

// MarkOutput declares the gate with the given ID a primary output.
// Marking the same gate twice is a no-op.
func (c *Circuit) MarkOutput(id int) error {
	if id < 0 || id >= len(c.gates) {
		return fmt.Errorf("logic: MarkOutput: id %d out of range", id)
	}
	for _, o := range c.outputs {
		if o == id {
			return nil
		}
	}
	c.outputs = append(c.outputs, id)
	return nil
}

// TopoOrder returns gate IDs in a topological order of the *timing*
// graph: every combinational gate after all of its fanins. Primary
// inputs and flip-flops come first (both are launch points; a DFF's
// data-input edge is not a combinational dependency, so feedback
// through state elements is legal). The result is cached; callers
// must not modify it. An error indicates a combinational cycle.
func (c *Circuit) TopoOrder() ([]int, error) {
	if c.topo != nil {
		return c.topo, nil
	}
	n := len(c.gates)
	indeg := make([]int, n)
	for _, g := range c.gates {
		if g.Type == Dff {
			continue // launch point: no combinational fanin
		}
		indeg[g.ID] = len(g.Fanin)
	}
	order := make([]int, 0, n)
	queue := make([]int, 0, n)
	queue = append(queue, c.inputs...)
	queue = append(queue, c.dffs...)
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		order = append(order, id)
		for _, s := range c.gates[id].Fanout {
			if c.gates[s].Type == Dff {
				continue // capture edge, not a dependency
			}
			// A sink may connect several pins to the same driver but
			// appears once in Fanout; count all matching pins.
			dec := 0
			for _, f := range c.gates[s].Fanin {
				if f == id {
					dec++
				}
			}
			indeg[s] -= dec
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("logic: circuit %q has a combinational cycle (%d of %d nodes ordered)", c.Name, len(order), n)
	}
	c.topo = order
	return order, nil
}

// Levels returns, for every gate ID, its logic level: 0 for primary
// inputs, 1+max(fanin levels) otherwise. The result is cached; callers
// must not modify it.
func (c *Circuit) Levels() ([]int, error) {
	if c.levels != nil {
		return c.levels, nil
	}
	order, err := c.TopoOrder()
	if err != nil {
		return nil, err
	}
	lv := make([]int, len(c.gates))
	depth := 0
	for _, id := range order {
		g := c.gates[id]
		if g.Type == Input || g.Type == Dff {
			lv[id] = 0 // launch points
			continue
		}
		m := 0
		for _, f := range g.Fanin {
			if lv[f] > m {
				m = lv[f]
			}
		}
		lv[id] = m + 1
		if lv[id] > depth {
			depth = lv[id]
		}
	}
	c.levels = lv
	c.depth = depth
	return lv, nil
}

// Depth returns the logic depth (maximum level over all gates).
func (c *Circuit) Depth() (int, error) {
	if _, err := c.Levels(); err != nil {
		return 0, err
	}
	return c.depth, nil
}

// Validate checks structural well-formedness: at least one input and
// one output, fanin arities matching gate types, fanout lists
// consistent with fanin lists, acyclicity, and that every gate lies in
// the transitive fanin cone of some primary output (no dangling
// logic).
func (c *Circuit) Validate() error {
	if len(c.inputs) == 0 {
		return fmt.Errorf("logic: circuit %q has no primary inputs", c.Name)
	}
	if len(c.outputs) == 0 {
		return fmt.Errorf("logic: circuit %q has no primary outputs", c.Name)
	}
	for _, g := range c.gates {
		if got, want := len(g.Fanin), g.Type.Arity(); got != want {
			if g.Type == Dff && got == 0 {
				return fmt.Errorf("logic: flip-flop %q was never connected (ConnectDff)", g.Name)
			}
			return fmt.Errorf("logic: gate %q (%v) has %d fanins, wants %d", g.Name, g.Type, got, want)
		}
		for _, f := range g.Fanin {
			if f < 0 || f >= len(c.gates) {
				return fmt.Errorf("logic: gate %q fanin %d out of range", g.Name, f)
			}
			found := false
			for _, s := range c.gates[f].Fanout {
				if s == g.ID {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("logic: gate %q missing from fanout of its driver %q", g.Name, c.gates[f].Name)
			}
		}
	}
	if _, err := c.TopoOrder(); err != nil {
		return err
	}
	// Reachability: every gate must reach a timing endpoint — a
	// primary output or a flip-flop data input.
	reach := make([]bool, len(c.gates))
	stack := append([]int(nil), c.outputs...)
	stack = append(stack, c.dffs...)
	for _, o := range c.outputs {
		reach[o] = true
	}
	for _, f := range c.dffs {
		reach[f] = true
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, f := range c.gates[id].Fanin {
			if !reach[f] {
				reach[f] = true
				stack = append(stack, f)
			}
		}
	}
	for _, g := range c.gates {
		if !reach[g.ID] {
			return fmt.Errorf("logic: gate %q does not reach any primary output or flip-flop", g.Name)
		}
	}
	return nil
}

// Clone returns a deep copy of the circuit (caches are not copied).
func (c *Circuit) Clone() *Circuit {
	out := New(c.Name)
	out.gates = make([]*Gate, len(c.gates))
	for i, g := range c.gates {
		ng := &Gate{
			ID:     g.ID,
			Name:   g.Name,
			Type:   g.Type,
			Fanin:  append([]int(nil), g.Fanin...),
			Fanout: append([]int(nil), g.Fanout...),
			X:      g.X,
			Y:      g.Y,
		}
		out.gates[i] = ng
		out.byName[g.Name] = g.ID
	}
	out.inputs = append([]int(nil), c.inputs...)
	out.outputs = append([]int(nil), c.outputs...)
	out.dffs = append([]int(nil), c.dffs...)
	return out
}

// PlaceGrid assigns placement coordinates on the unit die [0,1]×[0,1].
// Gates are placed in columns by logic level (x) and spread within a
// level (y) in a deterministic order, mimicking a levelized standard-
// cell row placement. Connected gates therefore land near each other,
// which is what makes spatially correlated within-die variation
// meaningful.
func (c *Circuit) PlaceGrid() error {
	lv, err := c.Levels()
	if err != nil {
		return err
	}
	depth := c.depth
	byLevel := make([][]int, depth+1)
	for id, l := range lv {
		byLevel[l] = append(byLevel[l], id)
	}
	for l, ids := range byLevel {
		sort.Ints(ids)
		x := 0.5
		if depth > 0 {
			x = (float64(l) + 0.5) / float64(depth+1)
		}
		for i, id := range ids {
			y := (float64(i) + 0.5) / float64(len(ids))
			c.gates[id].X = x
			c.gates[id].Y = y
		}
	}
	return nil
}

// Stats summarizes structural characteristics of a circuit.
type Stats struct {
	Name       string
	Inputs     int
	Outputs    int
	Gates      int // logic gates, excluding PIs
	Depth      int
	MaxFanout  int
	AvgFanin   float64
	TypeCounts [NumGateTypes]int
}

// ComputeStats gathers structural statistics.
func (c *Circuit) ComputeStats() (Stats, error) {
	d, err := c.Depth()
	if err != nil {
		return Stats{}, err
	}
	s := Stats{
		Name:    c.Name,
		Inputs:  len(c.inputs),
		Outputs: len(c.outputs),
		Gates:   c.NumGates(),
		Depth:   d,
	}
	totalFanin := 0
	for _, g := range c.gates {
		s.TypeCounts[g.Type]++
		if len(g.Fanout) > s.MaxFanout {
			s.MaxFanout = len(g.Fanout)
		}
		if g.Type != Input {
			totalFanin += len(g.Fanin)
		}
	}
	if s.Gates > 0 {
		s.AvgFanin = float64(totalFanin) / float64(s.Gates)
	}
	return s, nil
}

// Simulate evaluates a combinational circuit on the given
// primary-input vector (indexed in PI creation order) and returns the
// value at every node. Sequential circuits must use SimulateSeq.
func (c *Circuit) Simulate(in []bool) ([]bool, error) {
	if c.Sequential() {
		return nil, fmt.Errorf("logic: Simulate on sequential circuit %q; use SimulateSeq", c.Name)
	}
	vals, _, err := c.SimulateSeq(in, nil)
	return vals, err
}

// SimulateSeq evaluates one clock cycle: primary inputs are applied,
// flip-flop outputs take the given current state (indexed in DFF
// creation order), combinational logic settles, and the next state
// (the values at the DFF data inputs) is returned alongside the value
// at every node.
func (c *Circuit) SimulateSeq(in, state []bool) (vals, next []bool, err error) {
	if len(in) != len(c.inputs) {
		return nil, nil, fmt.Errorf("logic: SimulateSeq: got %d input values for %d PIs", len(in), len(c.inputs))
	}
	if len(state) != len(c.dffs) {
		return nil, nil, fmt.Errorf("logic: SimulateSeq: got %d state bits for %d DFFs", len(state), len(c.dffs))
	}
	order, err := c.TopoOrder()
	if err != nil {
		return nil, nil, err
	}
	val := make([]bool, len(c.gates))
	for i, id := range c.inputs {
		val[id] = in[i]
	}
	for i, id := range c.dffs {
		val[id] = state[i]
	}
	buf := make([]bool, 0, 4)
	for _, id := range order {
		g := c.gates[id]
		if g.Type == Input || g.Type == Dff {
			continue
		}
		buf = buf[:0]
		for _, f := range g.Fanin {
			buf = append(buf, val[f])
		}
		val[id] = g.Type.Eval(buf)
	}
	next = make([]bool, len(c.dffs))
	for i, id := range c.dffs {
		next[i] = val[c.gates[id].Fanin[0]]
	}
	return val, next, nil
}
