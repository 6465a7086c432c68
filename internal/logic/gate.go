// Package logic provides the gate-level combinational netlist substrate:
// gate types, the circuit DAG, topological ordering, levelization,
// structural validation, and a simple placement model used by the
// spatial-correlation machinery.
//
// The netlist model is deliberately close to the ISCAS85 world the paper
// evaluates on: primary inputs, single-output logic gates drawn from a
// small cell set (INV/BUF/NAND/NOR/AND/OR/XOR/XNOR up to four inputs),
// and primary outputs tapped from gate outputs.
package logic

import "fmt"

// GateType enumerates the supported cell functions. Input is a
// pseudo-gate representing a primary input; it has no fanin and no
// electrical cost of its own (its driver is outside the circuit).
type GateType uint8

const (
	// Input is a primary-input pseudo-gate.
	Input GateType = iota
	// Buf is a non-inverting buffer.
	Buf
	// Inv is an inverter.
	Inv
	// Nand2..Nand4 are 2/3/4-input NAND gates.
	Nand2
	Nand3
	Nand4
	// Nor2..Nor4 are 2/3/4-input NOR gates.
	Nor2
	Nor3
	Nor4
	// And2..And4 are 2/3/4-input AND gates.
	And2
	And3
	And4
	// Or2..Or4 are 2/3/4-input OR gates.
	Or2
	Or3
	Or4
	// Xor2 is a 2-input exclusive-OR gate.
	Xor2
	// Xnor2 is a 2-input exclusive-NOR gate.
	Xnor2
	// Dff is a D flip-flop (one data input). In the timing graph a DFF
	// is both an endpoint (its D pin captures, subject to setup) and a
	// startpoint (its Q pin launches with the clock-to-Q delay); its
	// fanin edge therefore does not create a combinational dependency,
	// which is what lets ISCAS89-style state feedback loops exist in
	// an otherwise acyclic netlist.
	Dff

	numGateTypes
)

// NumGateTypes is the count of distinct gate types, usable for
// table-driven per-type data.
const NumGateTypes = int(numGateTypes)

var gateTypeNames = [...]string{
	Input: "INPUT",
	Buf:   "BUF",
	Inv:   "NOT",
	Nand2: "NAND2",
	Nand3: "NAND3",
	Nand4: "NAND4",
	Nor2:  "NOR2",
	Nor3:  "NOR3",
	Nor4:  "NOR4",
	And2:  "AND2",
	And3:  "AND3",
	And4:  "AND4",
	Or2:   "OR2",
	Or3:   "OR3",
	Or4:   "OR4",
	Xor2:  "XOR2",
	Xnor2: "XNOR2",
	Dff:   "DFF",
}

var gateTypeArity = [...]int{
	Input: 0,
	Buf:   1,
	Inv:   1,
	Nand2: 2,
	Nand3: 3,
	Nand4: 4,
	Nor2:  2,
	Nor3:  3,
	Nor4:  4,
	And2:  2,
	And3:  3,
	And4:  4,
	Or2:   2,
	Or3:   3,
	Or4:   4,
	Xor2:  2,
	Xnor2: 2,
	Dff:   1,
}

// String returns the canonical upper-case name of the gate type
// (e.g. "NAND2"). Input prints as "INPUT".
func (t GateType) String() string {
	if int(t) < len(gateTypeNames) {
		return gateTypeNames[t]
	}
	return fmt.Sprintf("GateType(%d)", uint8(t))
}

// Arity returns the number of inputs the gate type requires.
// Input has arity zero.
func (t GateType) Arity() int {
	if int(t) < len(gateTypeArity) {
		return gateTypeArity[t]
	}
	return -1
}

// Valid reports whether t is one of the defined gate types.
func (t GateType) Valid() bool { return t < numGateTypes }

// baseFamily groups n-input variants of the same function.
type baseFamily uint8

const (
	famInput baseFamily = iota
	famBuf
	famInv
	famNand
	famNor
	famAnd
	famOr
	famXor
	famXnor
	famDff
)

func (t GateType) family() baseFamily {
	switch t {
	case Input:
		return famInput
	case Buf:
		return famBuf
	case Inv:
		return famInv
	case Nand2, Nand3, Nand4:
		return famNand
	case Nor2, Nor3, Nor4:
		return famNor
	case And2, And3, And4:
		return famAnd
	case Or2, Or3, Or4:
		return famOr
	case Xor2:
		return famXor
	case Dff:
		return famDff
	default:
		return famXnor
	}
}

// Sequential reports whether the gate type is a state element (its
// fanin edge is not a combinational dependency).
func (t GateType) Sequential() bool { return t == Dff }

// GateTypeForFunction returns the gate type implementing the named
// logic function ("NAND", "and", "XOR", ...) with the given number of
// inputs. It accepts the ISCAS85 .bench spellings (NOT, BUFF) as well
// as the canonical ones.
func GateTypeForFunction(fn string, nin int) (GateType, error) {
	up := toUpper(fn)
	switch up {
	case "INPUT":
		if nin != 0 {
			return 0, fmt.Errorf("logic: INPUT takes no operands, got %d", nin)
		}
		return Input, nil
	case "DFF":
		if nin != 1 {
			return 0, fmt.Errorf("logic: DFF requires 1 input, got %d", nin)
		}
		return Dff, nil
	case "BUF", "BUFF":
		if nin != 1 {
			return 0, fmt.Errorf("logic: BUF requires 1 input, got %d", nin)
		}
		return Buf, nil
	case "NOT", "INV":
		if nin != 1 {
			return 0, fmt.Errorf("logic: NOT requires 1 input, got %d", nin)
		}
		return Inv, nil
	}
	pick := func(g2, g3, g4 GateType) (GateType, error) {
		switch nin {
		case 2:
			return g2, nil
		case 3:
			return g3, nil
		case 4:
			return g4, nil
		default:
			return 0, fmt.Errorf("logic: %s supports 2..4 inputs, got %d", up, nin)
		}
	}
	switch up {
	case "NAND", "NAND2", "NAND3", "NAND4":
		return pick(Nand2, Nand3, Nand4)
	case "NOR", "NOR2", "NOR3", "NOR4":
		return pick(Nor2, Nor3, Nor4)
	case "AND", "AND2", "AND3", "AND4":
		return pick(And2, And3, And4)
	case "OR", "OR2", "OR3", "OR4":
		return pick(Or2, Or3, Or4)
	case "XOR", "XOR2":
		if nin != 2 {
			return 0, fmt.Errorf("logic: XOR supports exactly 2 inputs, got %d", nin)
		}
		return Xor2, nil
	case "XNOR", "XNOR2":
		if nin != 2 {
			return 0, fmt.Errorf("logic: XNOR supports exactly 2 inputs, got %d", nin)
		}
		return Xnor2, nil
	}
	return 0, fmt.Errorf("logic: unknown gate function %q", fn)
}

func toUpper(s string) string {
	b := []byte(s)
	for i, c := range b {
		if 'a' <= c && c <= 'z' {
			b[i] = c - 'a' + 'A'
		}
	}
	return string(b)
}

// Eval computes the boolean output of the gate type for the given
// input values. It panics if len(in) does not match the arity; the
// functional simulator guarantees this by construction.
func (t GateType) Eval(in []bool) bool {
	if len(in) != t.Arity() {
		panic(fmt.Sprintf("logic: %v.Eval with %d inputs", t, len(in)))
	}
	switch t.family() {
	case famInput:
		panic("logic: Eval on INPUT pseudo-gate")
	case famDff:
		panic("logic: Eval on DFF; use Circuit.SimulateSeq for sequential state")
	case famBuf:
		return in[0]
	case famInv:
		return !in[0]
	case famNand, famAnd:
		v := true
		for _, x := range in {
			v = v && x
		}
		if t.family() == famNand {
			return !v
		}
		return v
	case famNor, famOr:
		v := false
		for _, x := range in {
			v = v || x
		}
		if t.family() == famNor {
			return !v
		}
		return v
	case famXor:
		return in[0] != in[1]
	default: // famXnor
		return in[0] == in[1]
	}
}

// Gate is one node of the netlist DAG. Fanin lists driver gate IDs in
// pin order; Fanout lists the IDs of gates this gate drives (a gate
// appears once per distinct sink, even if it connects to several pins
// of the same sink). X and Y are placement coordinates on the unit die,
// assigned by Circuit.PlaceGrid and consumed by the variation model.
type Gate struct {
	ID     int
	Name   string
	Type   GateType
	Fanin  []int
	Fanout []int
	X, Y   float64
}

// IsInput reports whether the gate is a primary-input pseudo-gate.
func (g *Gate) IsInput() bool { return g.Type == Input }
