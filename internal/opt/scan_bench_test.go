package opt

import (
	"context"
	"testing"

	"repro/internal/engine"
	"repro/internal/fixture"
)

// BenchmarkPolishScan times one candidate-scan round of phase B on
// s1908 at 1.3·Dmin, from the state phase A leaves: the statistical
// slack refresh plus scoring and ranking every LVT→HVT swap and
// downsize candidate.
func BenchmarkPolishScan(b *testing.B) {
	d, err := fixture.Suite("s1908")
	if err != nil {
		b.Fatal(err)
	}
	dmin, err := MinimumDelay(d.Clone())
	if err != nil {
		b.Fatal(err)
	}
	o := DefaultOptions(1.3 * dmin)
	e, err := engine.NewFamily(d, engineConfig(o), nil)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if err := statPhaseA(ctx, e, o, o.TmaxPs*phaseAMargins[0], &StatResult{}); err != nil {
		b.Fatal(err)
	}
	sc := newStatScan(e, o)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cands, err := sc.candidates(ctx, 1.0)
		if err != nil {
			b.Fatal(err)
		}
		if len(cands) == 0 {
			b.Fatal("no candidates")
		}
	}
}
