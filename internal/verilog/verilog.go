// Package verilog reads and writes gate-level netlists in a
// structural Verilog subset — the other interchange format (besides
// .bench) that circulates for the ISCAS benchmark suites and that
// synthesis tools emit. Supported constructs:
//
//	module NAME (port, ...);
//	  input  a, b;
//	  output y;
//	  wire   n1, n2;
//	  nand g1 (y, a, b);   // primitive: output first, then inputs
//	  not  g2 (n1, y);
//	  dff  g3 (q, d);      // state element: Q then D
//	endmodule
//
// Primitives: and/or/nand/nor/xor/xnor (2-4 inputs), not/buf (1), and
// dff. Line (//) and block (/* */) comments are handled. Everything
// else — behavioral code, parameters, vectors, assigns — is out of
// scope and rejected with a position-labeled error.
package verilog

import (
	"container/heap"
	"fmt"
	"io"
	"sort"
	"strings"
	"unicode"

	"repro/internal/logic"
)

// indexHeap is a min-heap of pending-slice indices, so dependency
// resolution processes instances in file order whenever possible and
// gate IDs stay stable for already-topologically-ordered netlists.
type indexHeap []int

func (h indexHeap) Len() int            { return len(h) }
func (h indexHeap) Less(i, j int) bool  { return h[i] < h[j] }
func (h indexHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *indexHeap) Push(x interface{}) { *h = append(*h, x.(int)) }
func (h *indexHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// token kinds
type tokKind uint8

const (
	tokIdent tokKind = iota
	tokPunct         // one of ( ) , ;
	tokEOF
)

type token struct {
	kind tokKind
	text string
	line int
}

// lex splits the source into identifiers and punctuation, stripping
// comments.
func lex(src string) ([]token, error) {
	var toks []token
	line := 1
	i := 0
	n := len(src)
	for i < n {
		c := src[i]
		switch {
		case c == '\n':
			line++
			i++
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == '/' && i+1 < n && src[i+1] == '/':
			for i < n && src[i] != '\n' {
				i++
			}
		case c == '/' && i+1 < n && src[i+1] == '*':
			end := strings.Index(src[i+2:], "*/")
			if end < 0 {
				return nil, fmt.Errorf("verilog: line %d: unterminated block comment", line)
			}
			line += strings.Count(src[i:i+2+end+2], "\n")
			i += 2 + end + 2
		case c == '(' || c == ')' || c == ',' || c == ';':
			toks = append(toks, token{tokPunct, string(c), line})
			i++
		case isIdentStart(rune(c)):
			j := i
			for j < n && isIdentChar(rune(src[j])) {
				j++
			}
			toks = append(toks, token{tokIdent, src[i:j], line})
			i = j
		default:
			return nil, fmt.Errorf("verilog: line %d: unexpected character %q", line, c)
		}
	}
	toks = append(toks, token{tokEOF, "", line})
	return toks, nil
}

func isIdentStart(r rune) bool {
	return unicode.IsLetter(r) || r == '_' || r == '\\'
}

func isIdentChar(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '$' || r == '\\' || r == '[' || r == ']'
}

// parser state
type parser struct {
	toks []token
	pos  int
}

func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) expectPunct(s string) error {
	t := p.next()
	if t.kind != tokPunct || t.text != s {
		return fmt.Errorf("verilog: line %d: expected %q, got %q", t.line, s, t.text)
	}
	return nil
}

func (p *parser) expectIdent() (token, error) {
	t := p.next()
	if t.kind != tokIdent {
		return t, fmt.Errorf("verilog: line %d: expected identifier, got %q", t.line, t.text)
	}
	return t, nil
}

// identList parses "a, b, c ;" (returning the names).
func (p *parser) identList() ([]string, error) {
	var names []string
	for {
		t, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		names = append(names, t.text)
		sep := p.next()
		if sep.kind == tokPunct && sep.text == "," {
			continue
		}
		if sep.kind == tokPunct && sep.text == ";" {
			return names, nil
		}
		return nil, fmt.Errorf("verilog: line %d: expected ',' or ';', got %q", sep.line, sep.text)
	}
}

// instance is a parsed gate instantiation, resolved in a second pass.
type instance struct {
	prim  string
	name  string
	ports []string
	line  int
}

// Parse reads one structural module and returns the circuit.
func Parse(r io.Reader) (*logic.Circuit, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("verilog: read: %v", err)
	}
	toks, err := lex(string(raw))
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}

	kw, err := p.expectIdent()
	if err != nil || kw.text != "module" {
		return nil, fmt.Errorf("verilog: expected 'module' at the top")
	}
	nameTok, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	// Port list (names only; direction comes from declarations).
	for {
		t := p.next()
		if t.kind == tokPunct && t.text == ")" {
			break
		}
		if t.kind == tokEOF {
			return nil, fmt.Errorf("verilog: unterminated port list")
		}
	}
	if err := p.expectPunct(";"); err != nil {
		return nil, err
	}

	var inputs, outputs []string
	var insts []instance
	for {
		t := p.next()
		if t.kind == tokEOF {
			return nil, fmt.Errorf("verilog: missing endmodule")
		}
		if t.kind != tokIdent {
			return nil, fmt.Errorf("verilog: line %d: unexpected %q", t.line, t.text)
		}
		switch t.text {
		case "endmodule":
			return build(nameTok.text, inputs, outputs, insts)
		case "input":
			names, err := p.identList()
			if err != nil {
				return nil, err
			}
			inputs = append(inputs, names...)
		case "output":
			names, err := p.identList()
			if err != nil {
				return nil, err
			}
			outputs = append(outputs, names...)
		case "wire":
			if _, err := p.identList(); err != nil {
				return nil, err
			}
		default:
			// primitive instantiation: PRIM NAME ( out , in... ) ;
			prim := t.text
			nm, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct("("); err != nil {
				return nil, err
			}
			var ports []string
			for {
				pt, err := p.expectIdent()
				if err != nil {
					return nil, err
				}
				ports = append(ports, pt.text)
				sep := p.next()
				if sep.kind == tokPunct && sep.text == "," {
					continue
				}
				if sep.kind == tokPunct && sep.text == ")" {
					break
				}
				return nil, fmt.Errorf("verilog: line %d: expected ',' or ')', got %q", sep.line, sep.text)
			}
			if err := p.expectPunct(";"); err != nil {
				return nil, err
			}
			insts = append(insts, instance{prim: prim, name: nm.text, ports: ports, line: t.line})
		}
	}
}

// ParseString parses Verilog text held in a string.
func ParseString(src string) (*logic.Circuit, error) {
	return Parse(strings.NewReader(src))
}

// build resolves instances into a circuit. Output nets take the name
// of the net, not the instance, so cross-format identity with .bench
// holds.
func build(name string, inputs, outputs []string, insts []instance) (*logic.Circuit, error) {
	c := logic.New(name)
	for _, in := range inputs {
		if _, err := c.AddInput(in); err != nil {
			return nil, fmt.Errorf("verilog: %v", err)
		}
	}
	// DFFs first (launch points; allows feedback), then the
	// combinational instances by operand-availability fixpoint.
	type dffConn struct {
		id   int
		d    string
		line int
	}
	var dconns []dffConn
	var pending []instance
	for _, inst := range insts {
		if strings.EqualFold(inst.prim, "dff") {
			if len(inst.ports) != 2 {
				return nil, fmt.Errorf("verilog: line %d: dff takes (Q, D), got %d ports", inst.line, len(inst.ports))
			}
			id, err := c.AddDff(inst.ports[0])
			if err != nil {
				return nil, fmt.Errorf("verilog: line %d: %v", inst.line, err)
			}
			dconns = append(dconns, dffConn{id: id, d: inst.ports[1], line: inst.line})
			continue
		}
		pending = append(pending, inst)
	}
	// Kahn-style resolution (see bench.Parse): each pending instance
	// counts its not-yet-defined input nets, and adding a gate wakes
	// exactly the instances waiting on that net name. Linear in
	// instances + ports where a retry-until-fixpoint sweep is quadratic
	// on reverse-ordered netlists.
	waiting := make(map[string][]int)
	missing := make([]int, len(pending))
	queue := &indexHeap{}
	for i, inst := range pending {
		if len(inst.ports) < 2 {
			return nil, fmt.Errorf("verilog: line %d: %s needs an output and inputs", inst.line, inst.prim)
		}
		for _, a := range inst.ports[1:] {
			if _, ok := c.GateByName(a); !ok {
				waiting[a] = append(waiting[a], i)
				missing[i]++
			}
		}
		if missing[i] == 0 {
			heap.Push(queue, i)
		}
	}
	added := 0
	done := make([]bool, len(pending))
	for queue.Len() > 0 {
		i := heap.Pop(queue).(int)
		inst := pending[i]
		ids := make([]int, 0, len(inst.ports)-1)
		for _, a := range inst.ports[1:] {
			g, ok := c.GateByName(a)
			if !ok {
				return nil, fmt.Errorf("verilog: line %d: net %q undefined", inst.line, a)
			}
			ids = append(ids, g.ID)
		}
		ty, err := logic.GateTypeForFunction(inst.prim, len(ids))
		if err != nil {
			return nil, fmt.Errorf("verilog: line %d: %v", inst.line, err)
		}
		if _, err := c.AddGate(inst.ports[0], ty, ids...); err != nil {
			return nil, fmt.Errorf("verilog: line %d: %v", inst.line, err)
		}
		added++
		done[i] = true
		for _, w := range waiting[inst.ports[0]] {
			missing[w]--
			if missing[w] == 0 {
				heap.Push(queue, w)
			}
		}
		delete(waiting, inst.ports[0])
	}
	if added != len(pending) {
		for i, inst := range pending {
			if !done[i] {
				return nil, fmt.Errorf("verilog: %d instances have undefined or cyclic operands (first: %q line %d)",
					len(pending)-added, inst.name, inst.line)
			}
		}
	}
	for _, dc := range dconns {
		g, ok := c.GateByName(dc.d)
		if !ok {
			return nil, fmt.Errorf("verilog: line %d: dff data net %q undefined", dc.line, dc.d)
		}
		if err := c.ConnectDff(dc.id, g.ID); err != nil {
			return nil, fmt.Errorf("verilog: line %d: %v", dc.line, err)
		}
	}
	for _, o := range outputs {
		g, ok := c.GateByName(o)
		if !ok {
			return nil, fmt.Errorf("verilog: output %q names an undefined net", o)
		}
		if err := c.MarkOutput(g.ID); err != nil {
			return nil, fmt.Errorf("verilog: %v", err)
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

// primOf maps a gate type to its Verilog primitive name.
func primOf(t logic.GateType) (string, error) {
	switch t {
	case logic.Buf:
		return "buf", nil
	case logic.Inv:
		return "not", nil
	case logic.Nand2, logic.Nand3, logic.Nand4:
		return "nand", nil
	case logic.Nor2, logic.Nor3, logic.Nor4:
		return "nor", nil
	case logic.And2, logic.And3, logic.And4:
		return "and", nil
	case logic.Or2, logic.Or3, logic.Or4:
		return "or", nil
	case logic.Xor2:
		return "xor", nil
	case logic.Xnor2:
		return "xnor", nil
	case logic.Dff:
		return "dff", nil
	default:
		return "", fmt.Errorf("verilog: no primitive for %v", t)
	}
}

// Write emits the circuit as one structural module, in topological
// order, so that Parse(Write(c)) round-trips.
func Write(w io.Writer, c *logic.Circuit) error {
	var b strings.Builder
	fmt.Fprintf(&b, "// %s — written by statleak/verilog\n", c.Name)
	fmt.Fprintf(&b, "module %s (", sanitizeName(c.Name))

	var ports []string
	for _, id := range c.Inputs() {
		ports = append(ports, c.Gate(id).Name)
	}
	outs := append([]int(nil), c.Outputs()...)
	sort.Ints(outs)
	for _, id := range outs {
		ports = append(ports, c.Gate(id).Name)
	}
	fmt.Fprintf(&b, "%s);\n", strings.Join(ports, ", "))

	writeDecl := func(kw string, names []string) {
		if len(names) == 0 {
			return
		}
		fmt.Fprintf(&b, "  %s %s;\n", kw, strings.Join(names, ", "))
	}
	var inNames, outNames, wireNames []string
	isOut := map[int]bool{}
	for _, id := range outs {
		isOut[id] = true
	}
	for _, g := range c.Gates() {
		switch {
		case g.Type == logic.Input:
			inNames = append(inNames, g.Name)
		case isOut[g.ID]:
			outNames = append(outNames, g.Name)
		default:
			wireNames = append(wireNames, g.Name)
		}
	}
	writeDecl("input", inNames)
	writeDecl("output", outNames)
	writeDecl("wire", wireNames)
	b.WriteByte('\n')

	order, err := c.TopoOrder()
	if err != nil {
		return err
	}
	gi := 0
	for _, id := range order {
		g := c.Gate(id)
		if g.Type == logic.Input {
			continue
		}
		prim, err := primOf(g.Type)
		if err != nil {
			return err
		}
		gi++
		conns := make([]string, 0, 1+len(g.Fanin))
		conns = append(conns, g.Name)
		for _, f := range g.Fanin {
			conns = append(conns, c.Gate(f).Name)
		}
		fmt.Fprintf(&b, "  %s g%d (%s);\n", prim, gi, strings.Join(conns, ", "))
	}
	b.WriteString("endmodule\n")
	_, err = io.WriteString(w, b.String())
	return err
}

// sanitizeName makes a circuit name a legal Verilog identifier.
func sanitizeName(s string) string {
	if s == "" {
		return "top"
	}
	out := []rune(s)
	for i, r := range out {
		if !isIdentChar(r) || r == '[' || r == ']' {
			out[i] = '_'
		}
	}
	if !isIdentStart(out[0]) {
		return "m_" + string(out)
	}
	return string(out)
}
