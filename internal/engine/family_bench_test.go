package engine_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fixture"
	"repro/internal/scenario"
	"repro/internal/ssta"
	"repro/internal/tech"
)

// benchFamilySetup builds the s880 design, a delay constraint around
// its 90th delay percentile, and the list of swappable gate IDs.
func benchFamilySetup(b *testing.B) (*core.Design, float64, []int) {
	b.Helper()
	d, err := fixture.Suite("s880")
	if err != nil {
		b.Fatal(err)
	}
	sr, err := ssta.Analyze(d)
	if err != nil {
		b.Fatal(err)
	}
	var ids []int
	for _, g := range d.Circuit.Gates() {
		if g.Type.Arity() > 0 {
			ids = append(ids, g.ID)
		}
	}
	return d, sr.Quantile(0.90), ids
}

// toggleSwap builds the Vth flip of gate id against the design's
// current assignment, so repeated application always stays legal.
func toggleSwap(b *testing.B, d *core.Design, id int) engine.Move {
	b.Helper()
	next := tech.HighVth
	if d.Vth[id] == tech.HighVth {
		next = tech.LowVth
	}
	mv, err := engine.NewVthSwap(d, id, next)
	if err != nil {
		b.Fatal(err)
	}
	return mv
}

func fourCornerSpec() *scenario.Spec {
	return &scenario.Spec{Temps: []float64{0, 110}, Corners: []string{"vl", "vh"}}
}

// BenchmarkFamilyReplayVsClone measures the cost of committing one
// move and re-reading the corner-aggregated objective (yield + leakage
// quantile over a 4-corner spec) two ways:
//
//   - replay: one engine.Family holding per-corner incremental caches;
//     a committed move mirrors into every corner in O(fanout cone).
//   - clone: the pre-family baseline — re-derive each corner from
//     scratch every round (fresh corner view, fresh engine, full SSTA
//     and leakage cache builds per corner).
//
// The family path must win by a wide margin; this benchmark is the
// PR's acceptance evidence (BENCH_6.json).
func BenchmarkFamilyReplayVsClone(b *testing.B) {
	b.Run("replay", func(b *testing.B) {
		d, tmax, ids := benchFamilySetup(b)
		f, err := engine.NewFamily(d, engine.Config{TmaxPs: tmax}, fourCornerSpec())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := f.Yield(); err != nil { // warm every corner cache
			b.Fatal(err)
		}
		if _, err := f.LeakQuantile(0.99); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := f.Apply(toggleSwap(b, f.Design(), ids[i%len(ids)])); err != nil {
				b.Fatal(err)
			}
			if _, err := f.Yield(); err != nil {
				b.Fatal(err)
			}
			if _, err := f.LeakQuantile(0.99); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("clone", func(b *testing.B) {
		d, tmax, ids := benchFamilySetup(b)
		rs, err := fourCornerSpec().Resolve(d.Lib, d.Circuit)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			id := ids[i%len(ids)]
			next := tech.HighVth
			if d.Vth[id] == tech.HighVth {
				next = tech.LowVth
			}
			if err := d.SetVth(id, next); err != nil {
				b.Fatal(err)
			}
			for _, r := range rs {
				cd := d
				if !r.Nominal {
					if cd, err = d.CornerView(r.Lib, r.BiasVth); err != nil {
						b.Fatal(err)
					}
				}
				e, err := engine.New(cd, engine.Config{TmaxPs: tmax})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := e.Yield(); err != nil {
					b.Fatal(err)
				}
				if _, err := e.LeakQuantile(0.99); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkFamilyCornerScaling measures how the per-move commit +
// aggregate-read cost grows with the corner count (1, 2, 4, 8): the
// family's per-corner work is incremental, so the scaling should stay
// close to linear in corners with a small constant.
func BenchmarkFamilyCornerScaling(b *testing.B) {
	specs := map[int]*scenario.Spec{
		1: nil, // nominal 1×1 spec
		2: {Temps: []float64{0, 110}},
		4: {Temps: []float64{0, 110}, Corners: []string{"vl", "vh"}},
		8: {Temps: []float64{0, 75, 110, 150}, Corners: []string{"vl", "vh"}},
	}
	for _, corners := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("corners=%d", corners), func(b *testing.B) {
			d, tmax, ids := benchFamilySetup(b)
			m := specs[corners]
			rs, err := m.Resolve(d.Lib, d.Circuit)
			if err != nil {
				b.Fatal(err)
			}
			if got := len(rs); got != corners {
				b.Fatalf("spec has %d corners, want %d", got, corners)
			}
			f, err := engine.NewFamily(d, engine.Config{TmaxPs: tmax}, m)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := f.Yield(); err != nil {
				b.Fatal(err)
			}
			if _, err := f.LeakQuantile(0.99); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := f.Apply(toggleSwap(b, f.Design(), ids[i%len(ids)])); err != nil {
					b.Fatal(err)
				}
				if _, err := f.Yield(); err != nil {
					b.Fatal(err)
				}
				if _, err := f.LeakQuantile(0.99); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
