package bench

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/logic"
)

func TestParseC17(t *testing.T) {
	c, err := ParseString("c17", C17)
	if err != nil {
		t.Fatalf("ParseString(C17): %v", err)
	}
	if got := c.NumInputs(); got != 5 {
		t.Errorf("inputs = %d, want 5", got)
	}
	if got := c.NumOutputs(); got != 2 {
		t.Errorf("outputs = %d, want 2", got)
	}
	if got := c.NumGates(); got != 6 {
		t.Errorf("gates = %d, want 6", got)
	}
	d, err := c.Depth()
	if err != nil {
		t.Fatal(err)
	}
	if d != 3 {
		t.Errorf("depth = %d, want 3", d)
	}
	g, ok := c.GateByName("G16")
	if !ok {
		t.Fatal("G16 missing")
	}
	if g.Type != logic.Nand2 {
		t.Errorf("G16 type = %v, want NAND2", g.Type)
	}
	if len(g.Fanout) != 2 {
		t.Errorf("G16 fanout = %d, want 2", len(g.Fanout))
	}
}

func TestParseForwardReference(t *testing.T) {
	// Gate defined before its operand: the format allows it.
	src := `
INPUT(a)
INPUT(b)
OUTPUT(y)
y = NOT(m)
m = NAND(a, b)
`
	c, err := ParseString("fwd", src)
	if err != nil {
		t.Fatalf("forward reference rejected: %v", err)
	}
	if c.NumGates() != 2 {
		t.Errorf("gates = %d, want 2", c.NumGates())
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"undefined operand", "INPUT(a)\nOUTPUT(y)\ny = NOT(zzz)\n"},
		{"undefined output", "INPUT(a)\nOUTPUT(nope)\ny = NOT(a)\n"},
		{"bad assignment", "INPUT(a)\nOUTPUT(y)\ny := NOT(a)\n"},
		{"bad function", "INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n"},
		{"arity", "INPUT(a)\nOUTPUT(y)\ny = XOR(a)\n"},
		{"empty operand", "INPUT(a)\nOUTPUT(y)\ny = NAND(a, )\n"},
		{"malformed input", "INPUT a\nOUTPUT(y)\ny = NOT(a)\n"},
		{"cycle", "INPUT(a)\nOUTPUT(y)\ny = NAND(a, z)\nz = NOT(y)\n"},
		{"duplicate", "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\ny = NOT(a)\n"},
	}
	for _, tc := range cases {
		if _, err := ParseString(tc.name, tc.src); err == nil {
			t.Errorf("%s: parse accepted invalid netlist", tc.name)
		}
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	orig, err := ParseString("c17", C17)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, orig); err != nil {
		t.Fatalf("Write: %v", err)
	}
	back, err := Parse("c17rt", strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("re-Parse: %v\n%s", err, buf.String())
	}
	if back.NumGates() != orig.NumGates() || back.NumInputs() != orig.NumInputs() || back.NumOutputs() != orig.NumOutputs() {
		t.Fatalf("round trip changed shape: %d/%d/%d vs %d/%d/%d",
			back.NumInputs(), back.NumOutputs(), back.NumGates(),
			orig.NumInputs(), orig.NumOutputs(), orig.NumGates())
	}
	// Functional equivalence on all 32 input vectors.
	for v := 0; v < 32; v++ {
		in := []bool{v&1 != 0, v&2 != 0, v&4 != 0, v&8 != 0, v&16 != 0}
		va, err := orig.Simulate(in)
		if err != nil {
			t.Fatal(err)
		}
		vb, err := back.Simulate(in)
		if err != nil {
			t.Fatal(err)
		}
		for i, oid := range orig.Outputs() {
			bid := back.Outputs()[i]
			if va[oid] != vb[bid] {
				t.Fatalf("round trip not functionally equal at vector %d output %d", v, i)
			}
		}
	}
}

func TestGenerateDeterminism(t *testing.T) {
	cfg, err := SuiteConfig("s432")
	if err != nil {
		t.Fatal(err)
	}
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ba, bb bytes.Buffer
	if err := Write(&ba, a); err != nil {
		t.Fatal(err)
	}
	if err := Write(&bb, b); err != nil {
		t.Fatal(err)
	}
	if ba.String() != bb.String() {
		t.Error("same config+seed produced different circuits")
	}
}

func TestGenerateMatchesTargets(t *testing.T) {
	for _, name := range SuiteNames() {
		cfg, err := SuiteConfig(name)
		if err != nil {
			t.Fatal(err)
		}
		c, err := Generate(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("%s: invalid: %v", name, err)
		}
		if c.NumInputs() != cfg.Inputs {
			t.Errorf("%s: inputs = %d, want %d", name, c.NumInputs(), cfg.Inputs)
		}
		if c.NumOutputs() != cfg.Outputs {
			t.Errorf("%s: outputs = %d, want %d", name, c.NumOutputs(), cfg.Outputs)
		}
		// Gate count within 20% of target (reduction tree adds a few).
		lo, hi := cfg.Gates*8/10, cfg.Gates*12/10
		if g := c.NumGates(); g < lo || g > hi {
			t.Errorf("%s: gates = %d, want within [%d,%d]", name, g, lo, hi)
		}
		d, err := c.Depth()
		if err != nil {
			t.Fatal(err)
		}
		if d < cfg.Depth {
			t.Errorf("%s: depth = %d, want >= %d", name, d, cfg.Depth)
		}
		if d > cfg.Depth*2 {
			t.Errorf("%s: depth = %d, way above target %d", name, d, cfg.Depth)
		}
	}
}

func TestGenerateConfigValidation(t *testing.T) {
	bad := []Config{
		{Name: "x", Inputs: 2, Outputs: 1, Gates: 50, Depth: 5},
		{Name: "x", Inputs: 8, Outputs: 0, Gates: 50, Depth: 5},
		{Name: "x", Inputs: 8, Outputs: 1, Gates: 50, Depth: 1},
		{Name: "x", Inputs: 8, Outputs: 1, Gates: 3, Depth: 5},
	}
	for i, cfg := range bad {
		if _, err := Generate(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestSuiteConfigUnknown(t *testing.T) {
	if _, err := SuiteConfig("c9999"); err == nil {
		t.Error("unknown suite name accepted")
	}
}

// TestGenerateNamed resolves a name in either suite, and an unknown
// name's one error lists both suites.
func TestGenerateNamed(t *testing.T) {
	for _, tc := range []struct {
		name string
		dffs int
	}{{"s432", 0}, {"q344", 15}} {
		c, err := GenerateNamed(tc.name)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if c.Name != tc.name || c.NumDffs() != tc.dffs {
			t.Errorf("%s: generated %q with %d flip-flops, want %d", tc.name, c.Name, c.NumDffs(), tc.dffs)
		}
	}
	_, err := GenerateNamed("s9999")
	if err == nil {
		t.Fatal("unknown suite name accepted")
	}
	for _, name := range append(SuiteNames(), SeqSuiteNames()...) {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list %s", err, name)
		}
	}
}

func TestGeneratePlacement(t *testing.T) {
	cfg, _ := SuiteConfig("s432")
	c, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	anyPlaced := false
	for _, g := range c.Gates() {
		if g.X != 0 || g.Y != 0 {
			anyPlaced = true
		}
		if g.X < 0 || g.X > 1 || g.Y < 0 || g.Y > 1 {
			t.Fatalf("gate %s off-die at (%g,%g)", g.Name, g.X, g.Y)
		}
	}
	if !anyPlaced {
		t.Error("no gate received placement coordinates")
	}
}

func TestGenerateReconvergence(t *testing.T) {
	// A realistic benchmark must have gates with fanout > 1 (the source
	// of reconvergent paths that make statistical max interesting).
	cfg, _ := SuiteConfig("s880")
	c, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	multi := 0
	for _, g := range c.Gates() {
		if len(g.Fanout) > 1 {
			multi++
		}
	}
	if multi < c.NumGates()/20 {
		t.Errorf("only %d/%d nodes have fanout > 1; generator lost reconvergence", multi, c.NumGates())
	}
}
