package opt

import (
	"context"
	"testing"

	"repro/internal/engine"
	"repro/internal/fixture"
)

// polishScan returns the run's candidate scan on s1908 at 1.3·Dmin,
// in the state phase A leaves.
func polishScan(tb testing.TB) *statScan {
	tb.Helper()
	d, err := fixture.Suite("s1908")
	if err != nil {
		tb.Fatal(err)
	}
	dmin, err := MinimumDelay(d.Clone())
	if err != nil {
		tb.Fatal(err)
	}
	o := DefaultOptions(1.3 * dmin)
	e, err := engine.NewFamily(d, engineConfig(o), nil)
	if err != nil {
		tb.Fatal(err)
	}
	if err := statPhaseA(context.Background(), e, o, o.TmaxPs*phaseAMargins[0], &StatResult{}); err != nil {
		tb.Fatal(err)
	}
	return newStatScan(e, o)
}

// scanRound runs one candidate-scan round of the polish phase.
func scanRound(tb testing.TB, sc *statScan) {
	tb.Helper()
	cands, err := sc.candidates(context.Background(), 1.0)
	if err != nil {
		tb.Fatal(err)
	}
	if len(cands) == 0 {
		tb.Fatal("no candidates")
	}
}

// BenchmarkPolishScan times one candidate-scan round of phase B on
// s1908 at 1.3·Dmin, from the state phase A leaves: the statistical
// slack refresh plus scoring and ranking every LVT→HVT swap and
// downsize candidate.
func BenchmarkPolishScan(b *testing.B) {
	sc := polishScan(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scanRound(b, sc)
	}
}

// TestPolishScanAllocatesNothing: once the scan's buffers have grown
// and its moves are boxed, a scan round allocates nothing.
func TestPolishScanAllocatesNothing(t *testing.T) {
	sc := polishScan(t)
	scanRound(t, sc)
	if allocs := testing.AllocsPerRun(5, func() { scanRound(t, sc) }); allocs > 0 {
		t.Errorf("a scan round allocates %g times, want 0", allocs)
	}
}
