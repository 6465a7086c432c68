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
	"fmt"
	"io"
	"sort"
	"strings"
	"unicode"

	"repro/internal/logic"
)

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
	var defs []logic.Def
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
			c, err := logic.Build(nameTok.text, inputs, outputs, defs)
			if err != nil {
				return nil, fmt.Errorf("verilog: %w", err)
			}
			return c, nil
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
			if _, err := p.expectIdent(); err != nil {
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
			switch {
			case strings.EqualFold(prim, "dff") && len(ports) != 2:
				return nil, fmt.Errorf("verilog: line %d: dff takes (Q, D), got %d ports", t.line, len(ports))
			case len(ports) < 2:
				return nil, fmt.Errorf("verilog: line %d: %s needs an output and inputs", t.line, prim)
			}
			// A gate takes the name of its output net, not of the
			// instance, so cross-format identity with .bench holds.
			defs = append(defs, logic.Def{Name: ports[0], Fn: prim, Args: ports[1:], Line: t.line})
		}
	}
}

// ParseString parses Verilog text held in a string.
func ParseString(src string) (*logic.Circuit, error) {
	return Parse(strings.NewReader(src))
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
