package engine

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/ssta"
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
	for id := 0; id < r.NumNodes(); id++ {
		a := r.Arrival(id)
		add(a.Mean, a.Rand)
		add(a.Sens...)
	}
	add(r.Delay.Mean, r.Delay.Rand)
	add(r.Delay.Sens...)
	return out
}

// checkCaches asserts the engine's memoized loads and gate delays equal
// Design.Load/Design.GateDelay, and its slack equals
// ssta.Result.StatisticalSlack, bit for bit; and that its arrival rows
// track a fresh analysis of the design within drift tolerance.
func checkCaches(t *testing.T, e *Engine, label string) {
	t.Helper()
	d := e.d
	fresh, err := ssta.Analyze(d)
	if err != nil {
		t.Fatal(err)
	}
	r := e.inc.Result()
	for id := 0; id < r.NumNodes(); id++ {
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
}

// TestRandomSequencesKeepCachesExact drives random Apply/Revert/Refresh
// sequences — batches reverted newest first, immediate apply/revert
// tries, drift refreshes in between — through one engine and through a
// 4-corner family. After every step each corner's memo and slack must
// match the uncached design values bit for bit; a revert of the move
// just applied must restore the timing rows bit for bit and count as
// an undo, and every other revert must re-time.
func TestRandomSequencesKeepCachesExact(t *testing.T) {
	for _, corners := range []int{1, 4} {
		cfg := Config{TmaxPs: 1000, RefreshEvery: 23}
		var f *Family
		if corners == 1 {
			f = testFamily(t, "s880", cfg, nil)
		} else {
			f = testFamily(t, "s880", cfg, fourCornerSpec(t))
		}
		if _, err := f.Yield(); err != nil {
			t.Fatal(err)
		}
		if _, err := f.LeakQuantile(0.99); err != nil {
			t.Fatal(err)
		}
		d := f.Design()
		ids := gateIDs(d)
		rng := rand.New(rand.NewSource(int64(41 + corners)))
		var stack []Move
		undone, afterRefresh := 0, 0
		for step := 0; step < 150; step++ {
			switch op := rng.Intn(4); op {
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
				if err := f.Refresh(); err != nil {
					t.Fatal(err)
				}
			case 3: // a rejected try: apply, then revert (at once, or after a refresh)
				mv, ok := randomMove(d, ids, rng)
				if !ok {
					continue
				}
				before := make([][]uint64, corners)
				for i, e := range f.Engines() {
					before[i] = timingBits(t, e)
				}
				updates0, undos0 := incCounts()
				if err := f.Apply(mv); err != nil {
					t.Fatal(err)
				}
				if rng.Intn(3) == 0 {
					if err := f.Refresh(); err != nil {
						t.Fatal(err)
					}
				}
				refreshed := f.Engines()[0].sinceRefresh == 0
				if err := f.Revert(mv); err != nil {
					t.Fatal(err)
				}
				if refreshed {
					afterRefresh++
				} else {
					undone++
				}
				// A drift refresh on the revert itself rebuilds the rows.
				rebuilt := f.Engines()[0].sinceRefresh == 0
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
				for i, e := range f.Engines() {
					if !refreshed && !rebuilt && !bitsEqual(timingBits(t, e), before[i]) {
						t.Fatalf("step %d corner %d: timing rows after the undo differ from before the apply", step, i)
					}
				}
			}
			for i, e := range f.Engines() {
				checkCaches(t, e, f.Names()[i])
			}
		}
		if undone == 0 || afterRefresh == 0 {
			t.Fatalf("%d corners: %d undone tries and %d tries across a refresh; the sequence must exercise both",
				corners, undone, afterRefresh)
		}
	}
}

// incCounts reads the incremental timer's re-timing and undo counters.
func incCounts() (updates, undos int) {
	v := obs.Default.Values()
	return int(v["statleak_ssta_incremental_updates_total"]), int(v["statleak_ssta_incremental_undos_total"])
}
