package engine_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fixture"
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
// re-timing the cone.
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
