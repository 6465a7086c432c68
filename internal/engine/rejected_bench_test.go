package engine_test

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/fixture"
	"repro/internal/ssta"
	"repro/internal/tech"
)

// BenchmarkEngineRejectedTry times the polish phase's rejected try on
// s1908: Apply of one candidate (an LVT→HVT swap of the gate halfway
// down the topological order), the yield check, and the Revert. The
// Revert of the move just applied restores the timing rows instead of
// re-timing the cone.
func BenchmarkEngineRejectedTry(b *testing.B) {
	d, err := fixture.Suite("s1908")
	if err != nil {
		b.Fatal(err)
	}
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
	order, err := d.Circuit.TopoOrder()
	if err != nil {
		b.Fatal(err)
	}
	p := len(order) / 2
	for d.Circuit.Gate(order[p]).IsInput() || d.Vth[order[p]] != tech.LowVth {
		p++
	}
	mv, err := engine.NewVthSwap(d, order[p], tech.HighVth)
	if err != nil {
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
