package opt_test

import (
	"io"
	"testing"

	"repro/internal/exp"
	"repro/internal/opt"
	"repro/internal/scenario"
)

// TestScenarioStatisticalFourCorner is the acceptance smoke for the
// corner family end to end: a statistical run on an ISCAS85-scale
// benchmark over the 2-temps × 2-voltage-corners matrix completes,
// replays every committed move into all four corners, and reports a
// per-corner scoreboard whose minimum yield is the result's yield.
func TestScenarioStatisticalFourCorner(t *testing.T) {
	ctx := exp.NewContext(io.Discard)
	pr, err := ctx.Prepare("s432", nil)
	if err != nil {
		t.Fatal(err)
	}
	pr.Opt.Scenario = &scenario.Spec{Temps: []float64{0, 110}, Corners: []string{"vl", "vh"}}

	d := pr.Base.Clone()
	res, err := opt.Statistical(d, pr.Opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Moves == 0 {
		t.Fatal("4-corner statistical run committed no moves")
	}
	if len(res.Corners) != 4 {
		t.Fatalf("result has %d corner rows, want 4", len(res.Corners))
	}
	names := map[string]bool{}
	minYield := res.Corners[0].YieldAtTmax
	for _, cm := range res.Corners {
		names[cm.Name] = true
		if cm.YieldAtTmax < minYield {
			minYield = cm.YieldAtTmax
		}
		if cm.LeakPctNW <= 0 || cm.CornerDelayPs <= 0 {
			t.Errorf("corner %q: degenerate metrics %+v", cm.Name, cm)
		}
	}
	for _, want := range []string{"vl_tn", "vl_t110", "vh_tn", "vh_t110"} {
		if !names[want] {
			t.Errorf("scoreboard missing corner %q (have %v)", want, names)
		}
	}
	if res.YieldAtTmax != minYield {
		t.Errorf("result yield %v, want min over corners %v", res.YieldAtTmax, minYield)
	}
	if res.Feasible && res.YieldAtTmax < pr.Opt.YieldTarget {
		t.Errorf("feasible with yield %v below target %v", res.YieldAtTmax, pr.Opt.YieldTarget)
	}

	// The per-corner replay kept the shared assignment and the corner
	// views consistent: the design the result describes is the design
	// that was returned.
	if res.NominalLeakNW != d.TotalLeak() {
		t.Errorf("result nominal leak %v does not match the returned design's %v",
			res.NominalLeakNW, d.TotalLeak())
	}
}
