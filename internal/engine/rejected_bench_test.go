package engine_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fixture"
	"repro/internal/scenario"
	"repro/internal/ssta"
	"repro/internal/tech"
)

// midSwap returns s1908 and an LVT→HVT swap of the gate halfway down
// its topological order: the candidate both try benchmarks time.
func midSwap(tb testing.TB) (*core.Design, engine.Move) {
	tb.Helper()
	d, err := fixture.Suite("s1908")
	if err != nil {
		tb.Fatal(err)
	}
	order, err := d.Circuit.TopoOrder()
	if err != nil {
		tb.Fatal(err)
	}
	p := len(order) / 2
	for d.Circuit.Gate(order[p]).IsInput() || d.Vth[order[p]] != tech.LowVth {
		p++
	}
	mv, err := engine.NewVthSwap(d, order[p], tech.HighVth)
	if err != nil {
		tb.Fatal(err)
	}
	return d, mv
}

// BenchmarkEngineRejectedTry times the polish phase's rejected try on
// s1908: Apply of one candidate (an LVT→HVT swap of the gate halfway
// down the topological order), the yield check, and the Revert. The
// Revert of the move just applied restores the timing rows instead of
// re-timing the cone. Both caches are built before the timer starts.
func BenchmarkEngineRejectedTry(b *testing.B) {
	d, mv := midSwap(b)
	sr, err := ssta.Analyze(d)
	if err != nil {
		b.Fatal(err)
	}
	e, err := engine.New(d, engine.Config{TmaxPs: 1.3 * sr.Delay.Mean})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := e.LeakQuantile(0.99); err != nil {
		b.Fatal(err)
	}
	if _, err := e.Yield(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Apply(mv); err != nil {
			b.Fatal(err)
		}
		if _, err := e.Yield(); err != nil {
			b.Fatal(err)
		}
		if err := e.Revert(mv); err != nil {
			b.Fatal(err)
		}
	}
}

// cornerTryEngine wraps s1908 in an engine at the 3σ corner, as the
// deterministic optimizer evaluates it, with the corner analysis live.
func cornerTryEngine(tb testing.TB) (*engine.Engine, engine.Move, float64) {
	tb.Helper()
	d, mv := midSwap(tb)
	e, err := engine.New(d, engine.Config{TmaxPs: 1, CornerSigma: 3})
	if err != nil {
		tb.Fatal(err)
	}
	r, err := e.Corner(1)
	if err != nil {
		tb.Fatal(err)
	}
	return e, mv, 1.3 * r.MaxDelay
}

// cornerTry is the deterministic flow's rejected try: Apply, the corner
// check, Revert, and the corner analysis the next proposal reads.
func cornerTry(e *engine.Engine, mv engine.Move, tmax float64) error {
	if err := e.Apply(mv); err != nil {
		return err
	}
	if _, err := e.Corner(tmax); err != nil {
		return err
	}
	if err := e.Revert(mv); err != nil {
		return err
	}
	_, err := e.Corner(tmax)
	return err
}

// BenchmarkEngineCornerTry times cornerTry on s1908. Each Corner
// re-evaluates only the moved gate's and its fanins' corner delays,
// then re-runs the STA passes into the engine-owned result.
func BenchmarkEngineCornerTry(b *testing.B) {
	e, mv, tmax := cornerTryEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cornerTry(e, mv, tmax); err != nil {
			b.Fatal(err)
		}
	}
}

// TestEngineCornerTryAllocatesNothing: once the corner memo and result
// exist, a corner try allocates nothing.
func TestEngineCornerTryAllocatesNothing(t *testing.T) {
	e, mv, tmax := cornerTryEngine(t)
	if err := cornerTry(e, mv, tmax); err != nil { // warm-up
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := cornerTry(e, mv, tmax); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("a corner try allocates %g times, want 0", allocs)
	}
}

// refreshEngine wraps s1908 in an engine with both caches live, as the
// statistical optimizer runs it.
func refreshEngine(tb testing.TB) *engine.Engine {
	tb.Helper()
	d, err := fixture.Suite("s1908")
	if err != nil {
		tb.Fatal(err)
	}
	e, err := engine.New(d, engine.Config{TmaxPs: 1000})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := e.Yield(); err != nil {
		tb.Fatal(err)
	}
	if _, err := e.LeakQuantile(0.99); err != nil {
		tb.Fatal(err)
	}
	return e
}

// BenchmarkEngineRefresh times the periodic drift refresh on s1908:
// every arrival row re-timed and the leakage sums re-added, in the
// caches' own buffers.
func BenchmarkEngineRefresh(b *testing.B) {
	e := refreshEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Refresh()
	}
}

// TestEngineRefreshAllocatesNothing: a refresh re-times and re-sums
// the live caches in place.
func TestEngineRefreshAllocatesNothing(t *testing.T) {
	e := refreshEngine(t)
	if allocs := testing.AllocsPerRun(5, e.Refresh); allocs > 0 {
		t.Errorf("a refresh allocates %g times, want 0", allocs)
	}
}

// TestEngineEndpointTryAllocatesNothing: a rejected try — Apply, the
// yield check, Revert — of an LVT→HVT swap of a primary-output gate on
// s1908 allocates nothing. The swap rewrites an endpoint row, so the
// Apply refolds the circuit delay and the Revert restores it from the
// undo record.
func TestEngineEndpointTryAllocatesNothing(t *testing.T) {
	d, err := fixture.Suite("s1908")
	if err != nil {
		t.Fatal(err)
	}
	var mv engine.Move
	for _, id := range d.Circuit.Outputs() {
		if !d.Circuit.Gate(id).IsInput() && d.Vth[id] == tech.LowVth {
			if mv, err = engine.NewVthSwap(d, id, tech.HighVth); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	if mv == nil {
		t.Fatal("s1908 has no low-Vth output gate")
	}
	e, err := engine.New(d, engine.Config{TmaxPs: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.LeakQuantile(0.99); err != nil {
		t.Fatal(err)
	}
	q := func() float64 {
		v, err := e.DelayQuantile(0.99)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	q0 := q()
	if err := e.Apply(mv); err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(q()) == math.Float64bits(q0) {
		t.Fatal("the swap left the circuit delay unchanged, so it tries no refold")
	}
	if err := e.Revert(mv); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := e.Apply(mv); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Yield(); err != nil {
			t.Fatal(err)
		}
		if err := e.Revert(mv); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("an endpoint try allocates %g times, want 0", allocs)
	}
}

// TestFamilyExactLeakQuantileAllocatesNothing: with the leakage
// caches live, as the margin sweep finds them, the exact leakage
// quantile allocates nothing once the first call has built each
// corner's cell-pair table, on one corner and on four.
func TestFamilyExactLeakQuantileAllocatesNothing(t *testing.T) {
	d, err := fixture.Suite("s880")
	if err != nil {
		t.Fatal(err)
	}
	for _, matrix := range []*scenario.Spec{nil, fourCornerSpec()} {
		f, err := engine.NewFamily(d, engine.Config{TmaxPs: 1000}, matrix)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.LeakQuantile(0.99); err != nil {
			t.Fatal(err)
		}
		if _, err := f.ExactLeakQuantile(0.99); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := f.ExactLeakQuantile(0.99); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 0 {
			t.Errorf("ExactLeakQuantile allocates %g times, want 0", allocs)
		}
	}
}

// TestFamilyEndStateReadAllocatesOnlyTheAnalysis: once the caches and
// the exact-analysis table exist, refreshing every corner and reading
// the base design's end state allocate nothing but the returned
// leakage analysis, on one corner and on a nominal-first pair.
func TestFamilyEndStateReadAllocatesOnlyTheAnalysis(t *testing.T) {
	d, err := fixture.Suite("s880")
	if err != nil {
		t.Fatal(err)
	}
	pair := &scenario.Spec{Corners: []string{"vn", "vh"}}
	for _, matrix := range []*scenario.Spec{nil, pair} {
		f, err := engine.NewFamily(d, engine.Config{TmaxPs: 1000}, matrix)
		if err != nil {
			t.Fatal(err)
		}
		read := func() {
			f.Refresh()
			if _, _, ok, err := f.BaseAnalyses(); err != nil || !ok {
				t.Fatalf("BaseAnalyses: ok %v, err %v", ok, err)
			}
		}
		read() // warm-up: builds the caches and the cell-pair table
		if allocs := testing.AllocsPerRun(5, read); allocs > 1 {
			t.Errorf("a refresh and an end-state read allocate %g times, want at most 1 (the analysis)", allocs)
		}
	}
}
