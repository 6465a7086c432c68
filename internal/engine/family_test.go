package engine

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/fixture"
	"repro/internal/scenario"
	"repro/internal/ssta"
)

// fourCornerSpec is the canonical 2 temps × 2 voltage corners matrix
// the acceptance criteria exercise.
func fourCornerSpec(t *testing.T) *scenario.Matrix {
	t.Helper()
	m, err := (&scenario.Spec{Temps: []float64{0, 110}, Corners: []string{"vl", "vh"}}).Build()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func testFamily(t *testing.T, circuit string, cfg Config, m *scenario.Matrix) *Family {
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
		if e.TotalLeak() != f.TotalLeak() {
			t.Fatalf("step %d: nominal leak diverged", step)
		}
	}
}

// TestFamilyMirrorConsistency applies a long random move sequence
// through a 4-corner family and then checks every corner's incremental
// caches against fresh from-scratch analyses of that corner's design.
func TestFamilyMirrorConsistency(t *testing.T) {
	f := testFamily(t, "s432", Config{}, fourCornerSpec(t))
	if f.NumCorners() != 4 {
		t.Fatalf("family has %d corners, want 4", f.NumCorners())
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
	for i, e := range f.Engines() {
		sr, err := ssta.Analyze(e.Design())
		if err != nil {
			t.Fatal(err)
		}
		y, err := e.Yield()
		if err != nil {
			t.Fatal(err)
		}
		if want := sr.Yield(e.Config().TmaxPs); math.Abs(y-want) > tol {
			t.Errorf("corner %q: incremental yield %v, fresh %v", f.Names()[i], y, want)
		}
		q, err := e.DelayQuantile(0.99)
		if err != nil {
			t.Fatal(err)
		}
		if want := sr.Quantile(0.99); math.Abs(q-want) > tol*want {
			t.Errorf("corner %q: incremental delay q99 %v, fresh %v", f.Names()[i], q, want)
		}
	}

	// The corners must actually disagree — a family where every corner
	// returns identical numbers is not evaluating the matrix.
	q0, err := f.Engines()[0].LeakQuantile(0.99)
	if err != nil {
		t.Fatal(err)
	}
	distinct := false
	for _, e := range f.Engines()[1:] {
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
	f := testFamily(t, "s432", Config{}, fourCornerSpec(t))

	perY := make([]float64, 0, 4)
	perQ := make([]float64, 0, 4)
	perL := make([]float64, 0, 4)
	for _, e := range f.Engines() {
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

	// Weighted aggregation over equal weights is the plain average.
	m := fourCornerSpec(t)
	m.Aggregate = scenario.Weighted
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
	slack, err := f.StatisticalSlack()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range f.Engines() {
		s, err := e.StatisticalSlack()
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

// TestFamilyRevertRestoresCorners applies moves through the Family,
// peels the newest and reverts the rest: every corner must land exactly
// on its pre-run metrics.
func TestFamilyRevertRestoresCorners(t *testing.T) {
	f := testFamily(t, "s432", Config{}, fourCornerSpec(t))
	d := f.Design()
	ids := gateIDs(d)

	before := make([]float64, f.NumCorners())
	for i, e := range f.Engines() {
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
	for i, e := range f.Engines() {
		q, err := e.LeakQuantile(0.99)
		if err != nil {
			t.Fatal(err)
		}
		if q != before[i] {
			t.Errorf("corner %q: leak q %v after revert, want %v", f.Names()[i], q, before[i])
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
// scoring against per-corner ScoreAll results aggregated by hand.
func TestFamilyScoreAllAggregation(t *testing.T) {
	f := testFamily(t, "s432", Config{}, fourCornerSpec(t))
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

	got, err := f.ScoreAllLocalCtx(context.Background(), moves)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(moves) {
		t.Fatalf("scored %d of %d moves", len(got), len(moves))
	}

	per := make([][]Score, f.NumCorners())
	for i, e := range f.Engines() {
		per[i], err = e.ScoreAllLocalCtx(context.Background(), moves)
		if err != nil {
			t.Fatal(err)
		}
	}
	for j := range moves {
		worstLeak := per[0][j].DLeakQNW
		minMargin := per[0][j].DMarginPs
		for i := 1; i < len(per); i++ {
			worstLeak = math.Max(worstLeak, per[i][j].DLeakQNW)
			minMargin = math.Min(minMargin, per[i][j].DMarginPs)
		}
		if got[j].DLeakQNW != worstLeak {
			t.Errorf("move %d: aggregated DLeakQNW %v, want worst corner %v", j, got[j].DLeakQNW, worstLeak)
		}
		if got[j].DMarginPs != minMargin {
			t.Errorf("move %d: aggregated DMarginPs %v, want min corner %v", j, got[j].DMarginPs, minMargin)
		}
	}
}

// TestFamilyCornerScoreboard sanity-checks the fresh per-corner
// scoreboard: four named rows with finite, positive metrics.
func TestFamilyCornerScoreboard(t *testing.T) {
	f := testFamily(t, "s432", Config{}, fourCornerSpec(t))
	cms, err := f.CornerScoreboard()
	if err != nil {
		t.Fatal(err)
	}
	if len(cms) != 4 {
		t.Fatalf("scoreboard has %d rows, want 4", len(cms))
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
