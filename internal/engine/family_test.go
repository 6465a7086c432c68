package engine

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/fixture"
	"repro/internal/leakage"
	"repro/internal/scenario"
	"repro/internal/ssta"
	"repro/internal/sta"
	"repro/internal/tech"
)

// fourCornerSpec is the canonical 2 temps × 2 voltage corners spec
// the acceptance criteria exercise.
func fourCornerSpec() *scenario.Spec {
	return &scenario.Spec{Temps: []float64{0, 110}, Corners: []string{"vl", "vh"}}
}

func testFamily(t *testing.T, circuit string, cfg Config, m *scenario.Spec) *Family {
	t.Helper()
	d, err := fixture.Suite(circuit)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.TmaxPs == 0 {
		cfg.TmaxPs = 1000
	}
	f, err := NewFamily(d, cfg, m)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestFamilyNominalEquivalence drives the same random move sequence
// through a plain Engine and a 1×1 nominal Family over identical
// designs: every aggregate of one corner must be the single-engine
// value, bit for bit.
func TestFamilyNominalEquivalence(t *testing.T) {
	e, de := testEngine(t, "s432", Config{})
	f := testFamily(t, "s432", Config{}, nil)

	ids := gateIDs(de)
	rng := rand.New(rand.NewSource(7))
	for step := 0; step < 40; step++ {
		// Moves are value types carrying their From-state snapshot, so
		// the same move applies verbatim to both identical designs.
		m, ok := randomMove(de, ids, rng)
		if !ok {
			continue
		}
		if err := e.Apply(m); err != nil {
			t.Fatal(err)
		}
		if err := f.Apply(m); err != nil {
			t.Fatal(err)
		}

		ye, err := e.Yield()
		if err != nil {
			t.Fatal(err)
		}
		yf, err := f.Yield()
		if err != nil {
			t.Fatal(err)
		}
		if ye != yf {
			t.Fatalf("step %d: yield %v (engine) != %v (1×1 family)", step, ye, yf)
		}
		qe, err := e.LeakQuantile(0.99)
		if err != nil {
			t.Fatal(err)
		}
		qf, err := f.LeakQuantile(0.99)
		if err != nil {
			t.Fatal(err)
		}
		if qe != qf {
			t.Fatalf("step %d: leak q99 %v (engine) != %v (1×1 family)", step, qe, qf)
		}
		if e.d.TotalLeak() != f.TotalLeak() {
			t.Fatalf("step %d: nominal leak diverged", step)
		}
	}
}

// TestFamilyMirrorConsistency applies a long random move sequence
// through a 4-corner family and then checks every corner's incremental
// caches against fresh from-scratch analyses of that corner's design.
func TestFamilyMirrorConsistency(t *testing.T) {
	f := testFamily(t, "s432", Config{}, fourCornerSpec())
	if len(f.engines) != 4 {
		t.Fatalf("family has %d corners, want 4", len(f.engines))
	}
	d := f.Design()
	ids := gateIDs(d)
	rng := rand.New(rand.NewSource(11))
	applied := 0
	for step := 0; step < 60; step++ {
		m, ok := randomMove(d, ids, rng)
		if !ok {
			continue
		}
		if err := f.Apply(m); err != nil {
			t.Fatal(err)
		}
		applied++
	}
	if applied == 0 {
		t.Fatal("no moves applied")
	}

	const tol = 1e-6
	for i, e := range f.engines {
		sr, err := ssta.Analyze(e.d)
		if err != nil {
			t.Fatal(err)
		}
		y, err := e.Yield()
		if err != nil {
			t.Fatal(err)
		}
		if want := sr.Yield(e.cfg.TmaxPs); math.Abs(y-want) > tol {
			t.Errorf("corner %q: incremental yield %v, fresh %v", f.names[i], y, want)
		}
		q, err := e.DelayQuantile(0.99)
		if err != nil {
			t.Fatal(err)
		}
		if want := sr.Quantile(0.99); math.Abs(q-want) > tol*want {
			t.Errorf("corner %q: incremental delay q99 %v, fresh %v", f.names[i], q, want)
		}
	}

	// The corners must actually disagree — a family where every corner
	// returns identical numbers is not evaluating the matrix.
	q0, err := f.engines[0].LeakQuantile(0.99)
	if err != nil {
		t.Fatal(err)
	}
	distinct := false
	for _, e := range f.engines[1:] {
		q, err := e.LeakQuantile(0.99)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(q-q0) > tol*q0 {
			distinct = true
		}
	}
	if !distinct {
		t.Error("all four corners report the same leakage quantile")
	}
}

// TestFamilyAggregation pins the aggregation semantics against the
// per-corner values: yield is the min, delay quantile the max, the
// leakage objective the worst corner or the weight-normalized average.
func TestFamilyAggregation(t *testing.T) {
	f := testFamily(t, "s432", Config{}, fourCornerSpec())

	perY := make([]float64, 0, 4)
	perQ := make([]float64, 0, 4)
	perL := make([]float64, 0, 4)
	for _, e := range f.engines {
		y, err := e.Yield()
		if err != nil {
			t.Fatal(err)
		}
		q, err := e.DelayQuantile(0.99)
		if err != nil {
			t.Fatal(err)
		}
		l, err := e.LeakQuantile(0.99)
		if err != nil {
			t.Fatal(err)
		}
		perY = append(perY, y)
		perQ = append(perQ, q)
		perL = append(perL, l)
	}
	minY, maxQ, maxL := perY[0], perQ[0], perL[0]
	for i := 1; i < len(perY); i++ {
		minY = math.Min(minY, perY[i])
		maxQ = math.Max(maxQ, perQ[i])
		maxL = math.Max(maxL, perL[i])
	}

	if y, err := f.Yield(); err != nil || y != minY {
		t.Errorf("family yield %v (err %v), want min over corners %v", y, err, minY)
	}
	if q, err := f.DelayQuantile(0.99); err != nil || q != maxQ {
		t.Errorf("family delay q %v (err %v), want max over corners %v", q, err, maxQ)
	}
	if l, err := f.LeakQuantile(0.99); err != nil || l != maxL {
		t.Errorf("worst-corner leak q %v (err %v), want %v", l, err, maxL)
	}

	// Weighted aggregation is the mean over corners.
	m := fourCornerSpec()
	m.Aggregate = "weighted"
	fw, err := NewFamily(f.Design(), Config{TmaxPs: 1000}, m)
	if err != nil {
		t.Fatal(err)
	}
	lw, err := fw.LeakQuantile(0.99)
	if err != nil {
		t.Fatal(err)
	}
	avg := (perL[0] + perL[1] + perL[2] + perL[3]) / 4
	if math.Abs(lw-avg) > 1e-9*avg {
		t.Errorf("weighted leak q %v, want equal-weight average %v", lw, avg)
	}

	// Slack aggregation: elementwise min over corners.
	slack, err := f.StatisticalSlack(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range f.engines {
		s, err := e.StatisticalSlack(nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range s {
			if slack[i] > v+1e-12 {
				t.Fatalf("family slack[%d]=%v above corner slack %v", i, slack[i], v)
			}
		}
	}
}

// TestFamilyExactLeakQuantileBuildsAccumulator: on a fresh family,
// before any other leakage query, ExactLeakQuantile builds every
// corner's accumulator and returns leakage.Exact's quantile per
// corner, aggregated over the matrix, bit for bit; and it still does
// after moves have updated the accumulators it built. One corner and
// four.
func TestFamilyExactLeakQuantileBuildsAccumulator(t *testing.T) {
	for _, matrix := range []*scenario.Spec{nil, fourCornerSpec()} {
		f := testFamily(t, "s432", Config{}, matrix)
		for _, e := range f.engines {
			if e.acc != nil {
				t.Fatal("a fresh corner already has a leakage accumulator")
			}
		}
		check := func(label string) {
			t.Helper()
			got, err := f.ExactLeakQuantile(0.99)
			if err != nil {
				t.Fatal(err)
			}
			per := make([]float64, len(f.engines))
			for i, e := range f.engines {
				if e.acc == nil {
					t.Fatalf("%s: corner %d has no accumulator after ExactLeakQuantile", label, i)
				}
				an, err := leakage.Exact(e.d)
				if err != nil {
					t.Fatal(err)
				}
				per[i] = an.Quantile(0.99)
			}
			if want := f.Aggregate(per); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s, %d corners: ExactLeakQuantile %v, want leakage.Exact's %v",
					label, len(f.engines), got, want)
			}
		}
		check("fresh")
		d := f.Design()
		ids := gateIDs(d)
		rng := rand.New(rand.NewSource(5))
		for step := 0; step < 20; step++ {
			if m, ok := randomMove(d, ids, rng); ok {
				if err := f.Apply(m); err != nil {
					t.Fatal(err)
				}
			}
		}
		check("after moves")
	}
}

// TestFamilyBaseAnalysesAfterRestore restores an earlier assignment
// behind the family's back, as an optimizer restores its incumbent,
// and refreshes: BaseAnalyses must then read bitwise ssta.Analyze and
// leakage.Exact of the base design from the primary corner's caches,
// on one corner and under a spec whose first corner is nominal. When
// the first corner is a view, it reads nothing.
func TestFamilyBaseAnalysesAfterRestore(t *testing.T) {
	nominalFirst := &scenario.Spec{Corners: []string{"vn", "vh"}}
	for _, tc := range []struct {
		matrix *scenario.Spec
		ok     bool
	}{{nil, true}, {nominalFirst, true}, {fourCornerSpec(), false}} {
		f := testFamily(t, "s432", Config{}, tc.matrix)
		d := f.Design()
		ids := gateIDs(d)
		rng := rand.New(rand.NewSource(13))
		var incumbent *core.Design
		for step := 0; step < 60; step++ {
			if step == 20 {
				incumbent = d.Clone()
			}
			if m, ok := randomMove(d, ids, rng); ok {
				if err := f.Apply(m); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := f.Yield(); err != nil {
				t.Fatal(err)
			}
		}
		d.CopyAssignmentFrom(incumbent)
		f.Refresh()
		sr, an, ok, err := f.BaseAnalyses()
		if err != nil {
			t.Fatal(err)
		}
		if ok != tc.ok {
			t.Fatalf("%d corners: BaseAnalyses ok = %v, want %v", len(f.engines), ok, tc.ok)
		}
		if !ok {
			if sr != nil || an != nil {
				t.Errorf("%d corners: BaseAnalyses read a view's caches", len(f.engines))
			}
			continue
		}
		wantSR, err := ssta.Analyze(d)
		if err != nil {
			t.Fatal(err)
		}
		wantAn, err := leakage.Exact(d)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			what      string
			got, want float64
		}{
			{"delay mean", sr.Delay.Mean, wantSR.Delay.Mean},
			{"delay sigma", sr.Delay.Sigma(), wantSR.Delay.Sigma()},
			{"yield", sr.Yield(1000), wantSR.Yield(1000)},
			{"leak mean", an.MeanNW, wantAn.MeanNW},
			{"leak std", an.StdNW, wantAn.StdNW},
			{"leak q99", an.Quantile(0.99), wantAn.Quantile(0.99)},
		} {
			if math.Float64bits(c.got) != math.Float64bits(c.want) {
				t.Errorf("%d corners: %s %v, fresh analysis %v", len(f.engines), c.what, c.got, c.want)
			}
		}
	}
}

// TestFamilyRevertRestoresCorners applies moves through the Family,
// peels the newest and reverts the rest: every corner must land exactly
// on its pre-run metrics.
func TestFamilyRevertRestoresCorners(t *testing.T) {
	f := testFamily(t, "s432", Config{}, fourCornerSpec())
	d := f.Design()
	ids := gateIDs(d)

	before := make([]float64, len(f.engines))
	for i, e := range f.engines {
		q, err := e.LeakQuantile(0.99)
		if err != nil {
			t.Fatal(err)
		}
		before[i] = q
	}
	vthBefore := append([]uint8(nil), vthBytes(d)...)

	var applied []Move
	rng := rand.New(rand.NewSource(3))
	for len(applied) < 5 {
		m, ok := randomMove(d, ids, rng)
		if !ok {
			continue
		}
		if err := f.Apply(m); err != nil {
			t.Fatal(err)
		}
		applied = append(applied, m)
	}
	for i := len(applied) - 1; i >= 0; i-- {
		if err := f.Revert(applied[i]); err != nil {
			t.Fatal(err)
		}
	}

	for i, b := range vthBytes(d) {
		if b != vthBefore[i] {
			t.Fatalf("revert left gate %d assignment changed", i)
		}
	}
	for i, e := range f.engines {
		q, err := e.LeakQuantile(0.99)
		if err != nil {
			t.Fatal(err)
		}
		if q != before[i] {
			t.Errorf("corner %q: leak q %v after revert, want %v", f.names[i], q, before[i])
		}
	}
}

func vthBytes(d *core.Design) []uint8 {
	out := make([]uint8, len(d.Vth))
	for i, v := range d.Vth {
		out[i] = uint8(v)
	}
	return out
}

// TestFamilyScoreAllAggregation checks the cross-corner candidate
// scoring against per-corner local scores aggregated by hand: the
// worst corner, and under a weighted spec the mean over corners.
func TestFamilyScoreAllAggregation(t *testing.T) {
	weighted := fourCornerSpec()
	weighted.Aggregate = "weighted"
	for _, spec := range []*scenario.Spec{fourCornerSpec(), weighted} {
		f := testFamily(t, "s432", Config{}, spec)
		d := f.Design()

		var moves []Move
		rng := rand.New(rand.NewSource(5))
		ids := gateIDs(d)
		seen := map[int]bool{}
		for len(moves) < 8 {
			m, ok := randomMove(d, ids, rng)
			if !ok || seen[m.Gate()] {
				continue
			}
			seen[m.Gate()] = true
			moves = append(moves, m)
		}

		got, err := f.ScoreAllLocalCtx(context.Background(), moves, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(moves) {
			t.Fatalf("scored %d of %d moves", len(got), len(moves))
		}

		per := make([][]float64, len(f.engines))
		for i, e := range f.engines {
			per[i], err = e.ScoreAllLocalCtx(context.Background(), moves, nil)
			if err != nil {
				t.Fatal(err)
			}
		}
		w := 1 / float64(len(per))
		for j := range moves {
			want, mean := per[0][j], 0.0
			for i := range per {
				want = math.Max(want, per[i][j])
				mean += w * per[i][j]
			}
			if spec.Weighted() {
				want = mean
			}
			if math.Float64bits(got[j]) != math.Float64bits(want) {
				t.Errorf("%s aggregation, move %d: aggregated delta %v, want %v",
					spec.Aggregation(), j, got[j], want)
			}
		}
	}
}

// TestFamilyScoreAllAllocatesNothing: with a reused dst, a
// multi-corner scan round allocates nothing once the family's
// per-corner score buffers have grown — here s880's LVT→HVT swaps under
// the four-corner spec.
func TestFamilyScoreAllAllocatesNothing(t *testing.T) {
	f := testFamily(t, "s880", Config{}, fourCornerSpec())
	d := f.Design()
	var moves []Move
	for _, id := range gateIDs(d) {
		if mv, err := NewVthSwap(d, id, tech.HighVth); err == nil {
			moves = append(moves, mv)
		}
	}
	dst, err := f.ScoreAllLocalCtx(context.Background(), moves, nil)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if dst, err = f.ScoreAllLocalCtx(context.Background(), moves, dst); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("scoring %d moves at %d corners allocates %g times, want 0", len(moves), len(f.engines), allocs)
	}
}

// TestFamilyCornerScoreboard sanity-checks the fresh per-corner
// scoreboard: four named rows with finite, positive metrics. The
// scoreboard runs after an assignment restored behind the engines'
// backs, with their corner memos live, and each corner delay must
// still equal a fresh corner STA of the restored design bit for bit.
func TestFamilyCornerScoreboard(t *testing.T) {
	f := testFamily(t, "s432", Config{CornerSigma: 3}, fourCornerSpec())
	if _, err := f.Corner(f.engines[0].cfg.TmaxPs); err != nil {
		t.Fatal(err)
	}
	d := f.Design()
	restored := d.Clone()
	rng := rand.New(rand.NewSource(3))
	for k := 0; k < 40; k++ {
		if mv, ok := randomMove(restored, gateIDs(d), rng); ok {
			if err := mv.Apply(restored); err != nil {
				t.Fatal(err)
			}
		}
	}
	d.CopyAssignmentFrom(restored)
	cms, err := f.CornerScoreboard()
	if err != nil {
		t.Fatal(err)
	}
	if len(cms) != 4 {
		t.Fatalf("scoreboard has %d rows, want 4", len(cms))
	}
	for i, e := range f.engines {
		fresh, err := sta.AnalyzeCorner(e.d, e.cfg.TmaxPs, e.cfg.CornerSigma)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(cms[i].CornerDelayPs) != math.Float64bits(fresh.MaxDelay) {
			t.Errorf("corner %q: scoreboard corner delay %v, fresh corner STA %v", cms[i].Name, cms[i].CornerDelayPs, fresh.MaxDelay)
		}
	}
	for _, cm := range cms {
		if cm.Name == "" {
			t.Error("unnamed scoreboard row")
		}
		for _, v := range []float64{cm.YieldAtTmax, cm.LeakPctNW, cm.LeakMeanNW, cm.DelayMeanPs, cm.CornerDelayPs, cm.NominalLeakNW} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("corner %q: non-finite metric in %+v", cm.Name, cm)
			}
		}
		if cm.LeakPctNW <= 0 || cm.DelayMeanPs <= 0 {
			t.Errorf("corner %q: non-positive metrics %+v", cm.Name, cm)
		}
	}
}
