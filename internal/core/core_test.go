package core_test

import (
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/fixture"
	"repro/internal/logic"
	"repro/internal/tech"
)

func c17(t testing.TB) *core.Design {
	t.Helper()
	d, err := fixture.C17()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewDesignDefaults(t *testing.T) {
	d := c17(t)
	for _, g := range d.Circuit.Gates() {
		if d.Vth[g.ID] != tech.LowVth {
			t.Fatalf("gate %s not LVT by default", g.Name)
		}
		if d.Size[g.ID] != d.Lib.Sizes[0] {
			t.Fatalf("gate %s not min size by default", g.Name)
		}
	}
	if d.CountHVT() != 0 {
		t.Error("CountHVT != 0 on fresh design")
	}
	if got := d.AvgSize(); got != d.Lib.Sizes[0] {
		t.Errorf("AvgSize = %g", got)
	}
}

func TestNewDesignRejectsInvalidCircuit(t *testing.T) {
	env, err := fixture.DefaultEnv()
	if err != nil {
		t.Fatal(err)
	}
	c := logic.New("bad")
	if _, err := c.AddInput("a"); err != nil {
		t.Fatal(err)
	}
	// no outputs → invalid
	if _, err := core.NewDesign(c, env.Lib, env.Var); err == nil {
		t.Error("NewDesign accepted an invalid circuit")
	}
}

func TestSettersValidate(t *testing.T) {
	d := c17(t)
	id := d.Circuit.Outputs()[0]
	if err := d.SetVth(id, tech.HighVth); err != nil {
		t.Fatal(err)
	}
	if d.Vth[id] != tech.HighVth {
		t.Error("SetVth did not apply")
	}
	if err := d.SetVth(id, tech.VthClass(9)); err == nil {
		t.Error("invalid Vth accepted")
	}
	if err := d.SetSize(id, 4); err != nil {
		t.Fatal(err)
	}
	if err := d.SetSize(id, 7); err == nil {
		t.Error("off-ladder size accepted")
	}
}

func TestLoadComposition(t *testing.T) {
	d := c17(t)
	c := d.Circuit
	// G16 drives G22 and G23 (one pin each), no PO.
	g16, _ := c.GateByName("G16")
	g22, _ := c.GateByName("G22")
	g23, _ := c.GateByName("G23")
	want := d.Lib.InputCap(logic.Nand2, d.Size[g22.ID]) +
		d.Lib.InputCap(logic.Nand2, d.Size[g23.ID]) +
		2*d.Lib.P.WireCapPerFanoutFF
	if got := d.Load(g16.ID); math.Abs(got-want) > 1e-12 {
		t.Errorf("Load(G16) = %g, want %g", got, want)
	}
	// G22 is a PO with no internal fanout.
	if got := d.Load(g22.ID); math.Abs(got-d.Lib.P.POLoadFF) > 1e-12 {
		t.Errorf("Load(G22) = %g, want PO load %g", got, d.Lib.P.POLoadFF)
	}
	// Upsizing a sink increases the driver's load.
	before := d.Load(g16.ID)
	if err := d.SetSize(g22.ID, 8); err != nil {
		t.Fatal(err)
	}
	if after := d.Load(g16.ID); after <= before {
		t.Errorf("Load(G16) did not grow after upsizing sink: %g <= %g", after, before)
	}
}

func TestLoadCountsMultiPinConnections(t *testing.T) {
	env, err := fixture.DefaultEnv()
	if err != nil {
		t.Fatal(err)
	}
	c := logic.New("multipin")
	a, _ := c.AddInput("a")
	inv, _ := c.AddGate("n1", logic.Inv, a)
	// XOR with both pins tied to the same driver.
	x, _ := c.AddGate("x", logic.Xor2, inv, inv)
	_ = c.MarkOutput(x)
	_ = c.PlaceGrid()
	d, err := core.NewDesign(c, env.Lib, env.Var)
	if err != nil {
		t.Fatal(err)
	}
	want := 2*d.Lib.InputCap(logic.Xor2, d.Size[x]) + d.Lib.P.WireCapPerFanoutFF
	if got := d.Load(inv); math.Abs(got-want) > 1e-12 {
		t.Errorf("Load with double pin = %g, want %g", got, want)
	}
}

func TestGateDelayAndLeakRespondToAssignment(t *testing.T) {
	d := c17(t)
	id := d.Circuit.Outputs()[0]
	d0 := d.GateDelay(id)
	l0 := d.GateLeak(id)
	if err := d.SetVth(id, tech.HighVth); err != nil {
		t.Fatal(err)
	}
	if d.GateDelay(id) <= d0 {
		t.Error("HVT swap did not slow the gate")
	}
	if d.GateLeak(id) >= l0 {
		t.Error("HVT swap did not cut leakage")
	}
	if err := d.SetVth(id, tech.LowVth); err != nil {
		t.Fatal(err)
	}
	if err := d.SetSize(id, 4); err != nil {
		t.Fatal(err)
	}
	if d.GateDelay(id) >= d0 {
		t.Error("upsizing did not speed the gate at fixed load")
	}
	if d.GateLeak(id) <= l0 {
		t.Error("upsizing did not add leakage")
	}
}

func TestTotalLeakIsSumOverGates(t *testing.T) {
	d := c17(t)
	sum := 0.0
	for _, g := range d.Circuit.Gates() {
		if g.Type != logic.Input {
			sum += d.GateLeak(g.ID)
		}
	}
	if got := d.TotalLeak(); math.Abs(got-sum) > 1e-9 {
		t.Errorf("TotalLeak = %g, want %g", got, sum)
	}
	if sum <= 0 {
		t.Error("total leakage must be positive")
	}
}

func TestCloneIsolation(t *testing.T) {
	d := c17(t)
	cl := d.Clone()
	id := d.Circuit.Outputs()[0]
	if err := cl.SetVth(id, tech.HighVth); err != nil {
		t.Fatal(err)
	}
	if err := cl.SetSize(id, 8); err != nil {
		t.Fatal(err)
	}
	if d.Vth[id] == tech.HighVth || d.Size[id] == 8 {
		t.Error("Clone shares assignment storage with original")
	}
	// CopyAssignmentFrom brings them back in sync.
	d.CopyAssignmentFrom(cl)
	if d.Vth[id] != tech.HighVth || d.Size[id] != 8 {
		t.Error("CopyAssignmentFrom did not copy")
	}
}

func TestIsOutputFastPath(t *testing.T) {
	d := c17(t)
	for _, g := range d.Circuit.Gates() {
		if d.IsOutput(g.ID) != slices.Contains(d.Circuit.Outputs(), g.ID) {
			t.Fatalf("IsOutput mismatch for %s", g.Name)
		}
	}
}

func TestGateDelayWithMatchesNominal(t *testing.T) {
	d := c17(t)
	for _, g := range d.Circuit.Gates() {
		if g.Type == logic.Input {
			continue
		}
		if math.Abs(d.GateDelayWith(g.ID, 0, 0)-d.GateDelay(g.ID)) > 1e-12 {
			t.Fatalf("GateDelayWith(0,0) != GateDelay for %s", g.Name)
		}
	}
}
