package logic

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// buildC17 constructs the classic ISCAS85 c17 netlist by hand.
func buildC17(t testing.TB) *Circuit {
	t.Helper()
	c := New("c17")
	mustIn := func(n string) int {
		id, err := c.AddInput(n)
		if err != nil {
			t.Fatalf("AddInput(%s): %v", n, err)
		}
		return id
	}
	g1 := mustIn("G1")
	g2 := mustIn("G2")
	g3 := mustIn("G3")
	g6 := mustIn("G6")
	g7 := mustIn("G7")
	mustGate := func(n string, ty GateType, fi ...int) int {
		id, err := c.AddGate(n, ty, fi...)
		if err != nil {
			t.Fatalf("AddGate(%s): %v", n, err)
		}
		return id
	}
	g10 := mustGate("G10", Nand2, g1, g3)
	g11 := mustGate("G11", Nand2, g3, g6)
	g16 := mustGate("G16", Nand2, g2, g11)
	g19 := mustGate("G19", Nand2, g11, g7)
	g22 := mustGate("G22", Nand2, g10, g16)
	g23 := mustGate("G23", Nand2, g16, g19)
	if err := c.MarkOutput(g22); err != nil {
		t.Fatal(err)
	}
	if err := c.MarkOutput(g23); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestGateTypeArityAndNames(t *testing.T) {
	cases := []struct {
		ty    GateType
		name  string
		arity int
	}{
		{Input, "INPUT", 0},
		{Inv, "NOT", 1},
		{Buf, "BUF", 1},
		{Nand2, "NAND2", 2},
		{Nand4, "NAND4", 4},
		{Nor3, "NOR3", 3},
		{And2, "AND2", 2},
		{Or4, "OR4", 4},
		{Xor2, "XOR2", 2},
		{Xnor2, "XNOR2", 2},
	}
	for _, tc := range cases {
		if got := tc.ty.String(); got != tc.name {
			t.Errorf("%v.String() = %q, want %q", tc.ty, got, tc.name)
		}
		if got := tc.ty.Arity(); got != tc.arity {
			t.Errorf("%v.Arity() = %d, want %d", tc.ty, got, tc.arity)
		}
		if !tc.ty.Valid() {
			t.Errorf("%v.Valid() = false", tc.ty)
		}
	}
	if GateType(200).Valid() {
		t.Error("GateType(200).Valid() = true")
	}
}

func TestGateTypeForFunction(t *testing.T) {
	cases := []struct {
		fn   string
		nin  int
		want GateType
	}{
		{"NAND", 2, Nand2},
		{"nand", 3, Nand3},
		{"NAND", 4, Nand4},
		{"NOR", 2, Nor2},
		{"AND", 4, And4},
		{"OR", 3, Or3},
		{"NOT", 1, Inv},
		{"INV", 1, Inv},
		{"BUFF", 1, Buf},
		{"XOR", 2, Xor2},
		{"XNOR", 2, Xnor2},
	}
	for _, tc := range cases {
		got, err := GateTypeForFunction(tc.fn, tc.nin)
		if err != nil {
			t.Errorf("GateTypeForFunction(%q,%d): %v", tc.fn, tc.nin, err)
			continue
		}
		if got != tc.want {
			t.Errorf("GateTypeForFunction(%q,%d) = %v, want %v", tc.fn, tc.nin, got, tc.want)
		}
	}
	if _, err := GateTypeForFunction("NAND", 5); err == nil {
		t.Error("NAND/5 should fail")
	}
	if _, err := GateTypeForFunction("XOR", 3); err == nil {
		t.Error("XOR/3 should fail")
	}
	if _, err := GateTypeForFunction("FROB", 2); err == nil {
		t.Error("unknown function should fail")
	}
}

func TestGateTypeEvalTruthTables(t *testing.T) {
	check := func(ty GateType, in []bool, want bool) {
		t.Helper()
		if got := ty.Eval(in); got != want {
			t.Errorf("%v.Eval(%v) = %v, want %v", ty, in, got, want)
		}
	}
	check(Inv, []bool{true}, false)
	check(Inv, []bool{false}, true)
	check(Buf, []bool{true}, true)
	check(Nand2, []bool{true, true}, false)
	check(Nand2, []bool{true, false}, true)
	check(Nor2, []bool{false, false}, true)
	check(Nor2, []bool{true, false}, false)
	check(And3, []bool{true, true, true}, true)
	check(And3, []bool{true, false, true}, false)
	check(Or4, []bool{false, false, false, false}, false)
	check(Or4, []bool{false, false, true, false}, true)
	check(Xor2, []bool{true, false}, true)
	check(Xor2, []bool{true, true}, false)
	check(Xnor2, []bool{true, true}, true)
	check(Xnor2, []bool{false, true}, false)
}

func TestGateTypeEvalDeMorgan(t *testing.T) {
	// NAND(a,b) == NOT(AND(a,b)) and NOR == NOT(OR) for all inputs.
	for a := 0; a < 2; a++ {
		for b := 0; b < 2; b++ {
			in := []bool{a == 1, b == 1}
			if Nand2.Eval(in) != !And2.Eval(in) {
				t.Errorf("De Morgan NAND failed at %v", in)
			}
			if Nor2.Eval(in) != !Or2.Eval(in) {
				t.Errorf("De Morgan NOR failed at %v", in)
			}
		}
	}
}

func TestC17Structure(t *testing.T) {
	c := buildC17(t)
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := c.NumInputs(); got != 5 {
		t.Errorf("NumInputs = %d, want 5", got)
	}
	if got := c.NumGates(); got != 6 {
		t.Errorf("NumGates = %d, want 6", got)
	}
	if got := c.NumOutputs(); got != 2 {
		t.Errorf("NumOutputs = %d, want 2", got)
	}
	d, err := c.Depth()
	if err != nil {
		t.Fatal(err)
	}
	if d != 3 {
		t.Errorf("Depth = %d, want 3", d)
	}
	st, err := c.ComputeStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.TypeCounts[Nand2] != 6 {
		t.Errorf("NAND2 count = %d, want 6", st.TypeCounts[Nand2])
	}
	if st.MaxFanout < 2 {
		t.Errorf("MaxFanout = %d, want >= 2 (G11 and G16 fan out twice)", st.MaxFanout)
	}
}

func TestC17Simulation(t *testing.T) {
	c := buildC17(t)
	// Exhaustive 5-input truth check against a direct functional model.
	ref := func(g1, g2, g3, g6, g7 bool) (bool, bool) {
		g10 := !(g1 && g3)
		g11 := !(g3 && g6)
		g16 := !(g2 && g11)
		g19 := !(g11 && g7)
		return !(g10 && g16), !(g16 && g19)
	}
	for v := 0; v < 32; v++ {
		in := []bool{v&1 != 0, v&2 != 0, v&4 != 0, v&8 != 0, v&16 != 0}
		val, err := c.Simulate(in)
		if err != nil {
			t.Fatal(err)
		}
		w22, w23 := ref(in[0], in[1], in[2], in[3], in[4])
		g22, _ := c.GateByName("G22")
		g23, _ := c.GateByName("G23")
		if val[g22.ID] != w22 || val[g23.ID] != w23 {
			t.Fatalf("Simulate(%v): got (%v,%v), want (%v,%v)", in, val[g22.ID], val[g23.ID], w22, w23)
		}
	}
}

func TestTopoOrderProperty(t *testing.T) {
	c := buildC17(t)
	order, err := c.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[int]int, len(order))
	for i, id := range order {
		pos[id] = i
	}
	if len(pos) != c.NumNodes() {
		t.Fatalf("topo order has %d unique nodes, want %d", len(pos), c.NumNodes())
	}
	for _, g := range c.Gates() {
		for _, f := range g.Fanin {
			if pos[f] >= pos[g.ID] {
				t.Errorf("fanin %d of gate %d not before it in topo order", f, g.ID)
			}
		}
	}
}

func TestLevelsMonotone(t *testing.T) {
	c := buildC17(t)
	lv, err := c.Levels()
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range c.Gates() {
		for _, f := range g.Fanin {
			if lv[f] >= lv[g.ID] {
				t.Errorf("level(%d)=%d not < level(%d)=%d", f, lv[f], g.ID, lv[g.ID])
			}
		}
	}
}

func TestAddGateErrors(t *testing.T) {
	c := New("err")
	in, err := c.AddInput("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddInput("a"); err == nil {
		t.Error("duplicate name accepted")
	}
	if _, err := c.AddGate("", Inv, in); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := c.AddGate("g", Nand2, in); err == nil {
		t.Error("arity mismatch accepted")
	}
	if _, err := c.AddGate("g", Inv, 99); err == nil {
		t.Error("out-of-range fanin accepted")
	}
	if _, err := c.AddGate("g", GateType(99), in); err == nil {
		t.Error("invalid type accepted")
	}
	if err := c.MarkOutput(123); err == nil {
		t.Error("MarkOutput out of range accepted")
	}
}

func TestValidateCatchesDanglingGate(t *testing.T) {
	c := New("dangle")
	a, _ := c.AddInput("a")
	g, _ := c.AddGate("g", Inv, a)
	_, _ = c.AddGate("dead", Inv, a) // never reaches an output
	_ = c.MarkOutput(g)
	if err := c.Validate(); err == nil {
		t.Error("Validate accepted a gate that reaches no output")
	}
}

func TestValidateNoOutputs(t *testing.T) {
	c := New("noout")
	a, _ := c.AddInput("a")
	_, _ = c.AddGate("g", Inv, a)
	if err := c.Validate(); err == nil {
		t.Error("Validate accepted a circuit with no outputs")
	}
}

func TestCloneIndependence(t *testing.T) {
	c := buildC17(t)
	cl := c.Clone()
	if err := cl.Validate(); err != nil {
		t.Fatalf("clone invalid: %v", err)
	}
	if cl.NumNodes() != c.NumNodes() || cl.NumOutputs() != c.NumOutputs() {
		t.Fatal("clone size mismatch")
	}
	// Mutating the clone must not affect the original.
	id, err := cl.AddGate("extra", Inv, cl.Inputs()[0])
	if err != nil {
		t.Fatal(err)
	}
	_ = cl.MarkOutput(id)
	if c.NumNodes() == cl.NumNodes() {
		t.Error("original circuit grew with the clone")
	}
	if _, ok := c.GateByName("extra"); ok {
		t.Error("original circuit sees clone's gate")
	}
}

func TestPlaceGrid(t *testing.T) {
	c := buildC17(t)
	if err := c.PlaceGrid(); err != nil {
		t.Fatal(err)
	}
	lv, _ := c.Levels()
	for _, g := range c.Gates() {
		if g.X < 0 || g.X > 1 || g.Y < 0 || g.Y > 1 {
			t.Errorf("gate %s placed off-die at (%g,%g)", g.Name, g.X, g.Y)
		}
	}
	// Same level ⇒ same x column; deeper level ⇒ strictly larger x.
	for _, a := range c.Gates() {
		for _, b := range c.Gates() {
			switch {
			case lv[a.ID] == lv[b.ID]:
				if a.X != b.X {
					t.Fatalf("same-level gates %s,%s at different x", a.Name, b.Name)
				}
			case lv[a.ID] < lv[b.ID]:
				if a.X >= b.X {
					t.Fatalf("level order violated in x: %s(l%d) vs %s(l%d)", a.Name, lv[a.ID], b.Name, lv[b.ID])
				}
			}
		}
	}
}

// TestRandomDAGTopoProperty builds random layered DAGs and checks the
// topological-order invariant holds on all of them.
func TestRandomDAGTopoProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New("rand")
		ids := make([]int, 0, 64)
		for i := 0; i < 4+rng.Intn(5); i++ {
			id, err := c.AddInput(inName(i))
			if err != nil {
				return false
			}
			ids = append(ids, id)
		}
		for i := 0; i < 40; i++ {
			a := ids[rng.Intn(len(ids))]
			b := ids[rng.Intn(len(ids))]
			var id int
			var err error
			if a == b {
				id, err = c.AddGate(gName(i), Inv, a)
			} else {
				id, err = c.AddGate(gName(i), Nand2, a, b)
			}
			if err != nil {
				return false
			}
			ids = append(ids, id)
		}
		// Outputs: all sinks.
		for _, g := range c.Gates() {
			if len(g.Fanout) == 0 && g.Type != Input {
				if err := c.MarkOutput(g.ID); err != nil {
					return false
				}
			}
		}
		order, err := c.TopoOrder()
		if err != nil {
			return false
		}
		pos := make([]int, c.NumNodes())
		for i, id := range order {
			pos[id] = i
		}
		for _, g := range c.Gates() {
			for _, f := range g.Fanin {
				if pos[f] >= pos[g.ID] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func inName(i int) string { return "I" + string(rune('A'+i%26)) + string(rune('0'+i/26)) }
func gName(i int) string {
	return "N" + string(rune('A'+i%26)) + string(rune('0'+(i/26)%10)) + string(rune('0'+i/260))
}

func TestSimulateInputCountMismatch(t *testing.T) {
	c := buildC17(t)
	if _, err := c.Simulate([]bool{true}); err == nil {
		t.Error("Simulate accepted wrong input count")
	}
}
