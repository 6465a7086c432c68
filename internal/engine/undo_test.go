package engine

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/ssta"
	"repro/internal/sta"
)

// timingBits is the bit pattern of an engine's arrival rows and
// circuit-delay form.
func timingBits(t *testing.T, e *Engine) []uint64 {
	t.Helper()
	r, err := e.Timing()
	if err != nil {
		t.Fatal(err)
	}
	var out []uint64
	add := func(vs ...float64) {
		for _, v := range vs {
			out = append(out, math.Float64bits(v))
		}
	}
	for id := 0; id < e.d.Circuit.NumNodes(); id++ {
		a := r.Arrival(id)
		add(a.Mean, a.Rand)
		add(a.Sens...)
	}
	add(r.Delay.Mean, r.Delay.Rand)
	add(r.Delay.Sens...)
	return out
}

// cornerTmaxes are the two constraints checkCaches queries Corner at,
// one after the other, so every check also switches Tmax.
var cornerTmaxes = []float64{1000, 1400}

// checkCaches asserts the engine's memoized loads and gate delays equal
// Design.Load/Design.GateDelay, its slack equals
// ssta.Result.StatisticalSlack, and its corner analysis equals a fresh
// sta.AnalyzeCorner at both cornerTmaxes, bit for bit; and that its
// arrival rows track a fresh analysis of the design within drift
// tolerance.
func checkCaches(t *testing.T, e *Engine, label string) {
	t.Helper()
	d := e.d
	fresh, err := ssta.Analyze(d)
	if err != nil {
		t.Fatal(err)
	}
	r := e.inc.Result()
	for id := 0; id < d.Circuit.NumNodes(); id++ {
		got, want := r.Arrival(id), fresh.Arrival(id)
		if relErr(got.Mean, want.Mean) > 1e-9 || relErr(got.Sigma(), want.Sigma()) > 1e-9 {
			t.Fatalf("%s: node %d arrival (%v, %v), fresh analysis (%v, %v)",
				label, id, got.Mean, got.Sigma(), want.Mean, want.Sigma())
		}
	}
	for _, g := range d.Circuit.Gates() {
		load, delay := e.inc.LoadDelay(g.ID)
		if math.Float64bits(load) != math.Float64bits(d.Load(g.ID)) {
			t.Fatalf("%s: node %d cached load %v, Design.Load %v", label, g.ID, load, d.Load(g.ID))
		}
		if g.Type != logic.Input && math.Float64bits(delay) != math.Float64bits(d.GateDelay(g.ID)) {
			t.Fatalf("%s: node %d cached delay %v, Design.GateDelay %v", label, g.ID, delay, d.GateDelay(g.ID))
		}
	}
	got, err := e.StatisticalSlack(nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := e.inc.Result().StatisticalSlack(d, e.cfg.TmaxPs, e.cfg.YieldTarget)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: node %d engine slack %v, Result.StatisticalSlack %v", label, i, got[i], want[i])
		}
	}
	checkCorner(t, e, label)
}

// checkCorner asserts the engine's corner memo holds Design.Load, and
// that Corner equals a fresh sta.AnalyzeCorner of the design — every
// arrival, required time and slack, the max delay and the worst
// endpoint — bit for bit at each of cornerTmaxes.
func checkCorner(t *testing.T, e *Engine, label string) {
	t.Helper()
	d := e.d
	for _, tmax := range cornerTmaxes {
		got, err := e.Corner(tmax)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sta.AnalyzeCorner(d, tmax, e.cfg.CornerSigma)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got.MaxDelay) != math.Float64bits(want.MaxDelay) || got.WorstOutput != want.WorstOutput {
			t.Fatalf("%s: corner at Tmax %g has max delay %v at node %d, fresh analysis %v at node %d",
				label, tmax, got.MaxDelay, got.WorstOutput, want.MaxDelay, want.WorstOutput)
		}
		for _, v := range []struct {
			name      string
			got, want []float64
		}{{"arrival", got.Arrival, want.Arrival}, {"required", got.Required, want.Required}, {"slack", got.Slack, want.Slack}} {
			if !bitsEqual(floatBits(v.got), floatBits(v.want)) {
				t.Fatalf("%s: corner %s times at Tmax %g differ from a fresh analysis", label, v.name, tmax)
			}
		}
	}
	for _, g := range d.Circuit.Gates() {
		if g.Type == logic.Input {
			continue
		}
		if load, _ := e.cornerLoadDelay(g.ID); math.Float64bits(load) != math.Float64bits(d.Load(g.ID)) {
			t.Fatalf("%s: node %d corner memo load %v, Design.Load %v", label, g.ID, load, d.Load(g.ID))
		}
	}
}

func floatBits(vs []float64) []uint64 {
	out := make([]uint64, len(vs))
	for i, v := range vs {
		out[i] = math.Float64bits(v)
	}
	return out
}

// TestRandomSequencesKeepCachesExact drives random Apply/Revert/Refresh
// sequences — batches reverted newest first, immediate apply/revert
// tries, drift refreshes in between, and assignments restored behind
// the engines' backs followed by a Refresh — through one engine on
// s880, a 4-corner family on s880, and one engine on the sequential
// q344, each at corner sigma 3 and 0. After every step each corner's
// memos, slack and corner analysis must match the uncached design
// values bit for bit; a revert of the move just applied must restore
// the timing rows bit for bit and count as an undo, and every other
// revert must re-time.
func TestRandomSequencesKeepCachesExact(t *testing.T) {
	for _, tc := range []struct {
		circuit string
		corners int
	}{{"s880", 1}, {"s880", 4}, {"q344", 1}} {
		for _, sigma := range []float64{3, 0} {
			cfg := Config{TmaxPs: 1000, RefreshEvery: 23, CornerSigma: sigma}
			var m *scenario.Spec
			if tc.corners > 1 {
				m = fourCornerSpec()
			}
			f := testFamily(t, tc.circuit, cfg, m)
			runRandomSequence(t, f, rand.New(rand.NewSource(int64(41+tc.corners))))
		}
	}
}

// runRandomSequence is one TestRandomSequencesKeepCachesExact run.
func runRandomSequence(t *testing.T, f *Family, rng *rand.Rand) {
	t.Helper()
	corners := len(f.engines)
	if _, err := f.Yield(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.LeakQuantile(0.99); err != nil {
		t.Fatal(err)
	}
	d := f.Design()
	ids := gateIDs(d)
	var stack []Move
	undone, afterRefresh, restored := 0, 0, 0
	for step := 0; step < 150; step++ {
		switch op := rng.Intn(5); op {
		case 0: // apply a batch, often stacking moves on a few gates
			pool := ids
			if rng.Intn(2) == 0 {
				pool = ids[:3]
			}
			for k := 1 + rng.Intn(4); k > 0; k-- {
				mv, ok := randomMove(d, pool, rng)
				if !ok {
					continue
				}
				if err := f.Apply(mv); err != nil {
					t.Fatal(err)
				}
				stack = append(stack, mv)
			}
		case 1: // revert the newest moves, newest first
			for k := 1 + rng.Intn(4); k > 0 && len(stack) > 0; k-- {
				if err := f.Revert(stack[len(stack)-1]); err != nil {
					t.Fatal(err)
				}
				stack = stack[:len(stack)-1]
			}
		case 2:
			refreshAll(f)
		case 3: // a rejected try: apply, then revert (at once, or after a refresh)
			mv, ok := randomMove(d, ids, rng)
			if !ok {
				continue
			}
			before := make([][]uint64, corners)
			for i, e := range f.engines {
				before[i] = timingBits(t, e)
			}
			updates0, undos0 := incCounts()
			if err := f.Apply(mv); err != nil {
				t.Fatal(err)
			}
			if rng.Intn(3) == 0 {
				refreshAll(f)
			}
			refreshed := f.engines[0].sinceRefresh == 0
			if err := f.Revert(mv); err != nil {
				t.Fatal(err)
			}
			if refreshed {
				afterRefresh++
			} else {
				undone++
			}
			// A drift refresh on the revert itself re-times the rows.
			rebuilt := f.engines[0].sinceRefresh == 0
			updates, undos := incCounts()
			updates, undos = updates-updates0, undos-undos0
			switch {
			case refreshed && (undos != 0 || updates != 2*corners):
				t.Fatalf("step %d: revert after a refresh made %d undos and %d updates, want 0 and %d",
					step, undos, updates, 2*corners)
			case !refreshed && (undos != corners || updates != corners):
				t.Fatalf("step %d: immediate revert made %d undos and %d updates, want %d and %d",
					step, undos, updates, corners, corners)
			}
			for i, e := range f.engines {
				if !refreshed && !rebuilt && !bitsEqual(timingBits(t, e), before[i]) {
					t.Fatalf("step %d corner %d: timing rows after the undo differ from before the apply", step, i)
				}
			}
		case 4: // restore a perturbed assignment behind the engines' backs, then Refresh
			snap := d.Clone()
			for k := 1 + rng.Intn(8); k > 0; k-- {
				if mv, ok := randomMove(snap, ids, rng); ok {
					if err := mv.Apply(snap); err != nil {
						t.Fatal(err)
					}
				}
			}
			d.CopyAssignmentFrom(snap)
			refreshAll(f)
			stack = stack[:0] // the stacked moves no longer match the assignment
			restored++
		}
		for i, e := range f.engines {
			checkCaches(t, e, f.names[i])
		}
	}
	if undone == 0 || afterRefresh == 0 || restored == 0 {
		t.Fatalf("%d corners: %d undone tries, %d tries across a refresh and %d restores; the sequence must exercise all three",
			corners, undone, afterRefresh, restored)
	}
}

// refreshAll re-times and re-sums every corner's caches from the
// shared assignment.
func refreshAll(f *Family) {
	for _, e := range f.engines {
		e.Refresh()
	}
}

// incCounts reads the incremental timer's re-timing and undo counters.
func incCounts() (updates, undos int) {
	v := obs.Default.Values()
	return int(v["statleak_ssta_incremental_updates_total"]), int(v["statleak_ssta_incremental_undos_total"])
}
