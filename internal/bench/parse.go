// Package bench reads and writes gate-level netlists in the ISCAS85
// ".bench" format and generates synthetic benchmark circuits with
// ISCAS85-like structural statistics.
//
// The real ISCAS85 netlists are not distributable with this repository;
// the Parse function accepts them unchanged if the user supplies the
// files, while Generate produces seeded synthetic stand-ins whose gate
// count, depth, fanin mix and reconvergent fanout match the classic
// suite closely enough for the optimization experiments (see DESIGN.md
// §3 for the substitution rationale).
package bench

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/logic"
)

// Parse reads a netlist in ISCAS85 .bench syntax:
//
//	# comment
//	INPUT(G1)
//	OUTPUT(G22)
//	G10 = NAND(G1, G3)
//	G22 = NOT(G10)
//
// Gate lines may appear before the lines defining their operands
// (the format does not require topological order): the lines are read
// first and resolved by logic.Build. Outputs must name defined signals.
func Parse(name string, r io.Reader) (*logic.Circuit, error) {
	var (
		inputs  []string
		outputs []string
		defs    []logic.Def
	)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		switch {
		case hasPrefixFold(line, "INPUT"):
			arg, err := parenArg(line, "INPUT")
			if err != nil {
				return nil, fmt.Errorf("bench: line %d: %v", lineNo, err)
			}
			if err := validName(arg); err != nil {
				return nil, fmt.Errorf("bench: line %d: %v", lineNo, err)
			}
			inputs = append(inputs, arg)
		case hasPrefixFold(line, "OUTPUT"):
			arg, err := parenArg(line, "OUTPUT")
			if err != nil {
				return nil, fmt.Errorf("bench: line %d: %v", lineNo, err)
			}
			outputs = append(outputs, arg)
		default:
			eq := strings.Index(line, "=")
			if eq < 0 {
				return nil, fmt.Errorf("bench: line %d: expected assignment, got %q", lineNo, line)
			}
			lhs := strings.TrimSpace(line[:eq])
			rhs := strings.TrimSpace(line[eq+1:])
			open := strings.Index(rhs, "(")
			close_ := strings.LastIndex(rhs, ")")
			if lhs == "" || open <= 0 || close_ < open {
				return nil, fmt.Errorf("bench: line %d: malformed gate %q", lineNo, line)
			}
			if err := validName(lhs); err != nil {
				return nil, fmt.Errorf("bench: line %d: %v", lineNo, err)
			}
			var args []string
			for _, a := range strings.Split(rhs[open+1:close_], ",") {
				a = strings.TrimSpace(a)
				if a == "" {
					return nil, fmt.Errorf("bench: line %d: empty operand in %q", lineNo, line)
				}
				args = append(args, a)
			}
			defs = append(defs, logic.Def{Name: lhs, Fn: strings.TrimSpace(rhs[:open]), Args: args, Line: lineNo})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("bench: read: %v", err)
	}
	c, err := logic.Build(name, inputs, outputs, defs)
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	return c, nil
}

// ParseString parses .bench text held in a string.
func ParseString(name, text string) (*logic.Circuit, error) {
	return Parse(name, strings.NewReader(text))
}

func hasPrefixFold(s, prefix string) bool {
	return len(s) >= len(prefix) && strings.EqualFold(s[:len(prefix)], prefix)
}

// validName rejects signal names that cannot survive a Write/Parse
// round trip: operand lists split on commas and trim whitespace, so
// names containing either are ambiguous on re-read.
func validName(s string) error {
	if strings.ContainsAny(s, ", \t") {
		return fmt.Errorf("signal name %q contains ',' or whitespace", s)
	}
	return nil
}

func parenArg(line, kw string) (string, error) {
	rest := strings.TrimSpace(line[len(kw):])
	if !strings.HasPrefix(rest, "(") || !strings.HasSuffix(rest, ")") {
		return "", fmt.Errorf("malformed %s line %q", kw, line)
	}
	arg := strings.TrimSpace(rest[1 : len(rest)-1])
	if arg == "" {
		return "", fmt.Errorf("empty %s name", kw)
	}
	return arg, nil
}

// benchFunction maps a gate type to its .bench function spelling.
func benchFunction(t logic.GateType) string {
	switch t {
	case logic.Buf:
		return "BUFF"
	case logic.Inv:
		return "NOT"
	case logic.Nand2, logic.Nand3, logic.Nand4:
		return "NAND"
	case logic.Nor2, logic.Nor3, logic.Nor4:
		return "NOR"
	case logic.And2, logic.And3, logic.And4:
		return "AND"
	case logic.Or2, logic.Or3, logic.Or4:
		return "OR"
	case logic.Xor2:
		return "XOR"
	case logic.Xnor2:
		return "XNOR"
	case logic.Dff:
		return "DFF"
	default:
		return t.String()
	}
}

// Write emits the circuit in .bench syntax, topologically ordered, so
// that Parse(Write(c)) round-trips.
func Write(w io.Writer, c *logic.Circuit) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %s — written by statleak/bench\n", c.Name)
	fmt.Fprintf(bw, "# %d inputs, %d outputs, %d gates\n\n", c.NumInputs(), c.NumOutputs(), c.NumGates())
	for _, id := range c.Inputs() {
		fmt.Fprintf(bw, "INPUT(%s)\n", c.Gate(id).Name)
	}
	bw.WriteByte('\n')
	outs := append([]int(nil), c.Outputs()...)
	sort.Ints(outs)
	for _, id := range outs {
		fmt.Fprintf(bw, "OUTPUT(%s)\n", c.Gate(id).Name)
	}
	bw.WriteByte('\n')
	order, err := c.TopoOrder()
	if err != nil {
		return err
	}
	for _, id := range order {
		g := c.Gate(id)
		if g.Type == logic.Input {
			continue
		}
		names := make([]string, len(g.Fanin))
		for i, f := range g.Fanin {
			names[i] = c.Gate(f).Name
		}
		fmt.Fprintf(bw, "%s = %s(%s)\n", g.Name, benchFunction(g.Type), strings.Join(names, ", "))
	}
	return bw.Flush()
}

// C17 is the classic ISCAS85 c17 netlist, embedded for tests and the
// quickstart example. It is small enough to be public-domain folklore.
const C17 = `# c17 — ISCAS85
INPUT(G1)
INPUT(G2)
INPUT(G3)
INPUT(G6)
INPUT(G7)

OUTPUT(G22)
OUTPUT(G23)

G10 = NAND(G1, G3)
G11 = NAND(G3, G6)
G16 = NAND(G2, G11)
G19 = NAND(G11, G7)
G22 = NAND(G10, G16)
G23 = NAND(G16, G19)
`

// S27 is the classic ISCAS89 s27 sequential netlist (3 flip-flops with
// state feedback), embedded for tests and sequential examples.
const S27 = `# s27 — ISCAS89
INPUT(G0)
INPUT(G1)
INPUT(G2)
INPUT(G3)

OUTPUT(G17)

G5 = DFF(G10)
G6 = DFF(G11)
G7 = DFF(G13)

G14 = NOT(G0)
G17 = NOT(G11)
G8 = AND(G14, G6)
G15 = OR(G12, G8)
G16 = OR(G3, G8)
G9 = NAND(G16, G15)
G10 = NOR(G14, G11)
G11 = NOR(G5, G9)
G12 = NOR(G1, G7)
G13 = NOR(G2, G12)
`
