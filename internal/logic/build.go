package logic

import (
	"container/heap"
	"fmt"
	"strings"
)

// Def is one gate definition as a netlist parser read it.
type Def struct {
	Name string   // the net the gate drives
	Fn   string   // function name, resolved by GateTypeForFunction; "DFF" (any case) is a flip-flop
	Args []string // operand nets in pin order (a flip-flop's one data net)
	Line int      // source line, for errors
}

// Build resolves a netlist into a circuit: it adds the inputs, then
// the flip-flops unconnected, then the combinational gates in
// dependency order, wires the flip-flops' data pins, marks the
// outputs, validates the circuit and places it. Netlist formats allow
// forward references, so a gate may name operands defined later in
// the file. Resolution is Kahn-style: each gate counts its
// not-yet-defined operands, defining a net wakes exactly the gates
// waiting on it, and the ready gates are added in file order through
// one min-heap, so gate IDs follow the file wherever the file is
// already in topological order. That is linear in gates + operands
// (times the heap's log), where retrying until a fixpoint is quadratic
// on reverse-ordered netlists. Errors name the line and the signal;
// callers prefix them with their format.
func Build(name string, inputs, outputs []string, defs []Def) (*Circuit, error) {
	c := New(name)
	for _, in := range inputs {
		if _, err := c.AddInput(in); err != nil {
			return nil, err
		}
	}
	// Flip-flops first, unconnected: their outputs are launch points
	// that the combinational logic (including their own data cones —
	// that is the feedback) may reference; the data pins are wired
	// after all signals exist.
	var dffs, pending []Def
	for _, df := range defs {
		if !strings.EqualFold(df.Fn, "DFF") {
			pending = append(pending, df)
			continue
		}
		if len(df.Args) != 1 {
			return nil, fmt.Errorf("line %d: DFF takes 1 operand, got %d", df.Line, len(df.Args))
		}
		if _, err := c.AddDff(df.Name); err != nil {
			return nil, fmt.Errorf("line %d: %w", df.Line, err)
		}
		dffs = append(dffs, df)
	}
	waiting := make(map[string][]int) // operand net -> indices of pending gates waiting on it
	missing := make([]int, len(pending))
	ready := &minHeap{}
	for i, df := range pending {
		for _, a := range df.Args {
			if _, ok := c.byName[a]; !ok {
				waiting[a] = append(waiting[a], i)
				missing[i]++
			}
		}
		if missing[i] == 0 {
			heap.Push(ready, i)
		}
	}
	unresolved := len(pending)
	var fanin []int
	for ready.Len() > 0 {
		df := pending[heap.Pop(ready).(int)]
		fanin = fanin[:0]
		for _, a := range df.Args {
			fanin = append(fanin, c.byName[a])
		}
		ty, err := GateTypeForFunction(df.Fn, len(df.Args))
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", df.Line, err)
		}
		if _, err := c.AddGate(df.Name, ty, fanin...); err != nil {
			return nil, fmt.Errorf("line %d: %w", df.Line, err)
		}
		unresolved--
		for _, w := range waiting[df.Name] {
			if missing[w]--; missing[w] == 0 {
				heap.Push(ready, w)
			}
		}
		delete(waiting, df.Name)
	}
	if unresolved > 0 {
		for i, df := range pending {
			if missing[i] > 0 {
				return nil, fmt.Errorf("%d gates have undefined or cyclic operands (first: %q line %d)",
					unresolved, df.Name, df.Line)
			}
		}
	}
	for _, df := range dffs {
		driver, ok := c.byName[df.Args[0]]
		if !ok {
			return nil, fmt.Errorf("line %d: DFF operand %q undefined", df.Line, df.Args[0])
		}
		if err := c.ConnectDff(c.byName[df.Name], driver); err != nil {
			return nil, fmt.Errorf("line %d: %w", df.Line, err)
		}
	}
	for _, o := range outputs {
		id, ok := c.byName[o]
		if !ok {
			return nil, fmt.Errorf("output %q names an undefined signal", o)
		}
		if err := c.MarkOutput(id); err != nil {
			return nil, err
		}
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if err := c.PlaceGrid(); err != nil {
		return nil, err
	}
	return c, nil
}

// minHeap is a min-heap of ints for container/heap.
type minHeap []int

func (h minHeap) Len() int           { return len(h) }
func (h minHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h minHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *minHeap) Push(x any)        { *h = append(*h, x.(int)) }
func (h *minHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}
