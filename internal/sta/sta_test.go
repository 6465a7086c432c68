package sta_test

import (
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/fixture"
	"repro/internal/logic"
	"repro/internal/sta"
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

func analyze(t testing.TB, d *core.Design, tmax float64) *sta.Result {
	t.Helper()
	r, err := sta.Analyze(d, tmax)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestArrivalRecurrence(t *testing.T) {
	d := c17(t)
	r := analyze(t, d, 1000)
	for _, g := range d.Circuit.Gates() {
		if g.Type == logic.Input {
			if r.Arrival[g.ID] != 0 {
				t.Fatalf("PI %s arrival %g != 0", g.Name, r.Arrival[g.ID])
			}
			continue
		}
		worst := 0.0
		for _, f := range g.Fanin {
			if r.Arrival[f] > worst {
				worst = r.Arrival[f]
			}
		}
		want := worst + d.GateDelay(g.ID)
		if math.Abs(r.Arrival[g.ID]-want) > 1e-9 {
			t.Fatalf("arrival(%s) = %g, want %g", g.Name, r.Arrival[g.ID], want)
		}
	}
}

func TestMaxDelayIsWorstPO(t *testing.T) {
	d := c17(t)
	r := analyze(t, d, 1000)
	worst := 0.0
	for _, o := range d.Circuit.Outputs() {
		if r.Arrival[o] > worst {
			worst = r.Arrival[o]
		}
	}
	if r.MaxDelay != worst {
		t.Errorf("MaxDelay = %g, want %g", r.MaxDelay, worst)
	}
	if !d.IsOutput(r.WorstOutput) {
		t.Error("WorstOutput is not a PO")
	}
	if r.MaxDelay <= 0 {
		t.Error("MaxDelay must be positive")
	}
}

func TestSlackSemantics(t *testing.T) {
	d := c17(t)
	r := analyze(t, d, 1000)
	// At Tmax = MaxDelay the worst path has zero slack.
	r0 := analyze(t, d, r.MaxDelay)
	if ws := slices.Min(r0.Slack); math.Abs(ws) > 1e-9 {
		t.Errorf("worst slack at Tmax=MaxDelay is %g, want 0", ws)
	}
	// Loosening the constraint raises every slack by the same amount.
	r1 := analyze(t, d, r.MaxDelay+100)
	for i := range r0.Slack {
		if math.Abs((r1.Slack[i]-r0.Slack[i])-100) > 1e-9 {
			t.Fatalf("slack shift at node %d: %g", i, r1.Slack[i]-r0.Slack[i])
		}
	}
	// Slack must never exceed Tmax − longest-path-through-node, i.e.
	// required >= arrival on critical path nodes exactly at 0.
	for _, id := range r0.CriticalPath(d, nil) {
		if math.Abs(r0.Slack[id]) > 1e-9 {
			t.Fatalf("critical-path node %d has slack %g", id, r0.Slack[id])
		}
	}
}

func TestCriticalPathIsConnectedAndMonotone(t *testing.T) {
	d, err := fixture.Suite("s432")
	if err != nil {
		t.Fatal(err)
	}
	r := analyze(t, d, 1e6)
	path := r.CriticalPath(d, nil)
	if len(path) < 2 {
		t.Fatalf("critical path too short: %v", path)
	}
	if d.Circuit.Gate(path[0]).Type != logic.Input {
		t.Error("critical path does not start at a PI")
	}
	if path[len(path)-1] != r.WorstOutput {
		t.Error("critical path does not end at the worst PO")
	}
	for i := 1; i < len(path); i++ {
		g := d.Circuit.Gate(path[i])
		found := false
		for _, f := range g.Fanin {
			if f == path[i-1] {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("path edge %d→%d not a fanin edge", path[i-1], path[i])
		}
		if r.Arrival[path[i]] <= r.Arrival[path[i-1]] {
			t.Fatal("arrivals not increasing along critical path")
		}
	}
}

// TestCriticalPathReusesBuffer: a buffer with room for the path is
// filled in place, with no allocation, and holds the same path as a
// fresh one.
func TestCriticalPathReusesBuffer(t *testing.T) {
	d, err := fixture.Suite("s432")
	if err != nil {
		t.Fatal(err)
	}
	r := analyze(t, d, 1e6)
	want := r.CriticalPath(d, nil)
	buf := make([]int, 0, len(want))
	var got []int
	if allocs := testing.AllocsPerRun(5, func() { got = r.CriticalPath(d, buf) }); allocs > 0 {
		t.Errorf("CriticalPath into a buffer of capacity %d allocates %.0f times per call", cap(buf), allocs)
	}
	if !slices.Equal(got, want) {
		t.Errorf("path in buffer %v != fresh path %v", got, want)
	}
}

func TestHVTSwapIncreasesDelay(t *testing.T) {
	d := c17(t)
	before := analyze(t, d, 1000).MaxDelay
	// Swap every gate to HVT: the whole circuit slows by the tau ratio.
	for _, g := range d.Circuit.Gates() {
		if g.Type != logic.Input {
			if err := d.SetVth(g.ID, tech.HighVth); err != nil {
				t.Fatal(err)
			}
		}
	}
	after := analyze(t, d, 1000).MaxDelay
	ratio := after / before
	want := d.Lib.Delay(logic.Inv, tech.HighVth, 1, 10) / d.Lib.Delay(logic.Inv, tech.LowVth, 1, 10)
	if math.Abs(ratio-want) > 1e-9 {
		t.Errorf("all-HVT delay ratio = %g, want %g", ratio, want)
	}
}

func TestUniformUpsizeReducesDelay(t *testing.T) {
	// Doubling every size doubles all gate-input loads but leaves wire
	// and PO loads fixed, so every stage's effort delay strictly
	// improves — MaxDelay must drop. (Upsizing only part of a path has
	// no such guarantee: the added input capacitance can slow off-path
	// fanins, which is exactly why the optimizers evaluate moves with
	// full STA.)
	d, err := fixture.Suite("s432")
	if err != nil {
		t.Fatal(err)
	}
	before := analyze(t, d, 1e6).MaxDelay
	for _, g := range d.Circuit.Gates() {
		if g.Type == logic.Input {
			continue
		}
		if err := d.SetSize(g.ID, 2); err != nil {
			t.Fatal(err)
		}
	}
	after := analyze(t, d, 1e6).MaxDelay
	if after >= before {
		t.Errorf("uniform upsize did not help: %g >= %g", after, before)
	}
}

func TestMaxDelayWithDelaysAgreesWithAnalyze(t *testing.T) {
	d, err := fixture.Suite("s880")
	if err != nil {
		t.Fatal(err)
	}
	order, err := d.Circuit.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	delays := make([]float64, d.Circuit.NumNodes())
	for _, g := range d.Circuit.Gates() {
		if g.Type != logic.Input {
			delays[g.ID] = d.GateDelay(g.ID)
		}
	}
	got := sta.MaxDelayWithDelays(d.Circuit, order, delays, nil, d.Lib.P.DffSetupPs)
	want := analyze(t, d, 1e6).MaxDelay
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("MaxDelayWithDelays = %g, Analyze = %g", got, want)
	}
	// Scratch reuse path gives the same answer.
	scratch := make([]float64, d.Circuit.NumNodes())
	got2 := sta.MaxDelayWithDelays(d.Circuit, order, delays, scratch, d.Lib.P.DffSetupPs)
	if got2 != got {
		t.Errorf("scratch path differs: %g vs %g", got2, got)
	}
}

func TestSlackNonNegativeWhenConstraintLoose(t *testing.T) {
	d, err := fixture.Suite("s499")
	if err != nil {
		t.Fatal(err)
	}
	r := analyze(t, d, 1e6)
	r2 := analyze(t, d, r.MaxDelay*1.2)
	if ws := slices.Min(r2.Slack); ws < 0 {
		t.Errorf("negative slack %g under a loose constraint", ws)
	}
}
