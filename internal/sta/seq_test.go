package sta_test

import (
	"math"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/fixture"
	"repro/internal/logic"
	"repro/internal/sta"
)

func s27(t testing.TB) *core.Design {
	t.Helper()
	env, err := fixture.DefaultEnv()
	if err != nil {
		t.Fatal(err)
	}
	c, err := bench.ParseString("s27", bench.S27)
	if err != nil {
		t.Fatal(err)
	}
	d, err := core.NewDesign(c, env.Lib, env.Var)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestSequentialLaunchCapture(t *testing.T) {
	d := s27(t)
	r := analyze(t, d, 1e6)
	// FF arrivals are exactly their clock-to-Q delay, independent of
	// the (cyclic) data cones.
	for _, f := range d.Circuit.Dffs() {
		if math.Abs(r.Arrival[f]-d.GateDelay(f)) > 1e-9 {
			t.Errorf("DFF %s arrival %g != clk-to-Q %g",
				d.Circuit.Gate(f).Name, r.Arrival[f], d.GateDelay(f))
		}
	}
	// MaxDelay covers DFF captures: it must be at least the worst
	// D-pin arrival plus setup.
	setup := d.Lib.P.DffSetupPs
	for _, f := range d.Circuit.Dffs() {
		cap := r.Arrival[d.Circuit.Gate(f).Fanin[0]] + setup
		if r.MaxDelay < cap-1e-9 {
			t.Errorf("MaxDelay %g below capture %g at %s", r.MaxDelay, cap, d.Circuit.Gate(f).Name)
		}
	}
	if r.MaxDelay <= 0 {
		t.Fatal("MaxDelay must be positive")
	}
}

func TestSequentialSlackZeroOnCriticalPath(t *testing.T) {
	d := s27(t)
	r := analyze(t, d, 1e6)
	r0 := analyze(t, d, r.MaxDelay)
	if ws := slices.Min(r0.Slack); math.Abs(ws) > 1e-9 {
		t.Errorf("worst slack at Tmax=MaxDelay is %g, want 0", ws)
	}
	// The critical path starts at a launch point and ends at the worst
	// endpoint.
	path := r0.CriticalPath(d, nil)
	if len(path) < 2 {
		t.Fatalf("critical path too short: %v", path)
	}
	start := d.Circuit.Gate(path[0])
	if start.Type != logic.Input && start.Type != logic.Dff {
		t.Errorf("critical path starts at %v, want a launch point", start.Type)
	}
	if path[len(path)-1] != r0.WorstOutput {
		t.Error("critical path does not end at the worst endpoint")
	}
}

func TestSequentialSetupTimeShiftsMaxDelay(t *testing.T) {
	d := s27(t)
	base := analyze(t, d, 1e6).MaxDelay
	// If the worst endpoint is a DFF capture, adding setup time moves
	// MaxDelay one-for-one. Construct that case by re-analyzing with a
	// larger setup through AnalyzeDelays directly.
	delays := make([]float64, d.Circuit.NumNodes())
	for _, g := range d.Circuit.Gates() {
		if g.Type != logic.Input {
			delays[g.ID] = d.GateDelay(g.ID)
		}
	}
	setup := d.Lib.P.DffSetupPs
	r1, err := sta.AnalyzeDelays(d.Circuit, delays, 1e6, setup)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r1.MaxDelay-base) > 1e-9 {
		t.Fatalf("AnalyzeDelays disagrees with Analyze: %g vs %g", r1.MaxDelay, base)
	}
	r2, err := sta.AnalyzeDelays(d.Circuit, delays, 1e6, setup+100)
	if err != nil {
		t.Fatal(err)
	}
	if d.Circuit.Gate(r2.WorstOutput).Type == logic.Dff {
		if math.Abs((r2.MaxDelay-r1.MaxDelay)-100) > 1e-9 && r2.MaxDelay <= r1.MaxDelay {
			t.Errorf("setup increase did not move a DFF-capture MaxDelay: %g -> %g", r1.MaxDelay, r2.MaxDelay)
		}
	}
	if r2.MaxDelay < r1.MaxDelay {
		t.Error("larger setup reduced MaxDelay")
	}
}

func TestSequentialSuiteAnalyzes(t *testing.T) {
	d, err := fixture.Suite("q1423")
	if err != nil {
		t.Fatal(err)
	}
	r := analyze(t, d, 1e6)
	if r.MaxDelay <= 0 {
		t.Fatal("non-positive min clock period")
	}
	// Every DFF must have a sane slack at a loose constraint.
	r2 := analyze(t, d, r.MaxDelay*1.2)
	if ws := slices.Min(r2.Slack); ws < 0 {
		t.Errorf("negative slack %g at a loose constraint", ws)
	}
}
