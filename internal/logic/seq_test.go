package logic

import "testing"

// buildToggle constructs a 1-bit toggle register: F = DFF(XOR(F, en)).
func buildToggle(t *testing.T) *Circuit {
	t.Helper()
	c := New("toggle")
	en, err := c.AddInput("en")
	if err != nil {
		t.Fatal(err)
	}
	f, err := c.AddDff("F")
	if err != nil {
		t.Fatal(err)
	}
	x, err := c.AddGate("x", Xor2, f, en)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ConnectDff(f, x); err != nil {
		t.Fatal(err)
	}
	if err := c.MarkOutput(x); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestDffGateType(t *testing.T) {
	if Dff.String() != "DFF" || Dff.Arity() != 1 || !Dff.Valid() {
		t.Error("DFF type metadata wrong")
	}
	if !Dff.Sequential() || Nand2.Sequential() || Input.Sequential() {
		t.Error("Sequential() classification wrong")
	}
	ty, err := GateTypeForFunction("dff", 1)
	if err != nil || ty != Dff {
		t.Errorf("GateTypeForFunction(dff,1) = %v, %v", ty, err)
	}
	if _, err := GateTypeForFunction("DFF", 2); err == nil {
		t.Error("DFF/2 accepted")
	}
}

func TestDffEvalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Eval(DFF) did not panic")
		}
	}()
	Dff.Eval([]bool{true})
}

func TestToggleRegisterStructure(t *testing.T) {
	c := buildToggle(t)
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if !c.Sequential() || c.NumDffs() != 1 {
		t.Error("DFF accounting wrong")
	}
	// The XOR depends on the DFF output and also drives the DFF input:
	// that loop must not be a combinational cycle.
	order, err := c.TopoOrder()
	if err != nil {
		t.Fatalf("TopoOrder: %v", err)
	}
	pos := make(map[int]int)
	for i, id := range order {
		pos[id] = i
	}
	f := c.Dffs()[0]
	x, _ := c.GateByName("x")
	if pos[f] > pos[x.ID] {
		t.Error("DFF (launch point) must precede its dependent logic")
	}
	lv, err := c.Levels()
	if err != nil {
		t.Fatal(err)
	}
	if lv[f] != 0 || lv[x.ID] != 1 {
		t.Errorf("levels: dff=%d xor=%d, want 0/1", lv[f], lv[x.ID])
	}
}

func TestToggleRegisterBehaviour(t *testing.T) {
	c := buildToggle(t)
	// With en=1 the state toggles every cycle; with en=0 it holds.
	state := []bool{false}
	for cycle := 0; cycle < 4; cycle++ {
		_, next, err := c.SimulateSeq([]bool{true}, state)
		if err != nil {
			t.Fatal(err)
		}
		if next[0] == state[0] {
			t.Fatalf("cycle %d: state did not toggle", cycle)
		}
		state = next
	}
	_, next, err := c.SimulateSeq([]bool{false}, state)
	if err != nil {
		t.Fatal(err)
	}
	if next[0] != state[0] {
		t.Error("state changed with en=0")
	}
}

func TestConnectDffErrors(t *testing.T) {
	c := New("err")
	a, _ := c.AddInput("a")
	f, err := c.AddDff("F")
	if err != nil {
		t.Fatal(err)
	}
	g, _ := c.AddGate("g", Inv, a)
	if err := c.ConnectDff(g, a); err == nil {
		t.Error("ConnectDff on non-DFF accepted")
	}
	if err := c.ConnectDff(f, 99); err == nil {
		t.Error("out-of-range driver accepted")
	}
	if err := c.ConnectDff(f, g); err != nil {
		t.Fatal(err)
	}
	if err := c.ConnectDff(f, g); err == nil {
		t.Error("double connection accepted")
	}
}

func TestValidateUnconnectedDff(t *testing.T) {
	c := New("uncon")
	a, _ := c.AddInput("a")
	if _, err := c.AddDff("F"); err != nil {
		t.Fatal(err)
	}
	g, _ := c.AddGate("g", Inv, a)
	_ = c.MarkOutput(g)
	if err := c.Validate(); err == nil {
		t.Error("Validate accepted an unconnected DFF")
	}
}

func TestCloneSequential(t *testing.T) {
	c := buildToggle(t)
	cl := c.Clone()
	if cl.NumDffs() != 1 || !cl.Sequential() {
		t.Error("Clone lost flip-flops")
	}
	if err := cl.Validate(); err != nil {
		t.Fatalf("clone invalid: %v", err)
	}
}

func TestGateFeedingDffIsReachable(t *testing.T) {
	// A gate whose only sink is a flip-flop data pin is alive.
	c := New("d-cone")
	a, _ := c.AddInput("a")
	f, _ := c.AddDff("F")
	inv, _ := c.AddGate("inv", Inv, a) // drives only the DFF
	if err := c.ConnectDff(f, inv); err != nil {
		t.Fatal(err)
	}
	out, _ := c.AddGate("out", Inv, f)
	_ = c.MarkOutput(out)
	if err := c.Validate(); err != nil {
		t.Errorf("Validate rejected a gate feeding only a DFF: %v", err)
	}
}
