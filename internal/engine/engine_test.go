package engine

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/fixture"
	"repro/internal/leakage"
	"repro/internal/logic"
	"repro/internal/ssta"
	"repro/internal/tech"
)

func testEngine(t *testing.T, circuit string, cfg Config) (*Engine, *core.Design) {
	t.Helper()
	d, err := fixture.Suite(circuit)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.TmaxPs == 0 {
		cfg.TmaxPs = 1000
	}
	e, err := New(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e, d
}

func gateIDs(d *core.Design) []int {
	var ids []int
	for _, g := range d.Circuit.Gates() {
		if g.Type != logic.Input {
			ids = append(ids, g.ID)
		}
	}
	return ids
}

// randomMove draws a random valid move: a Vth flip, an upsize, or a
// downsize of a random gate. ok is false when the drawn resize is
// blocked at a ladder end.
func randomMove(d *core.Design, ids []int, rng *rand.Rand) (Move, bool) {
	id := ids[rng.Intn(len(ids))]
	switch rng.Intn(3) {
	case 0:
		to := tech.HighVth
		if d.Vth[id] == tech.HighVth {
			to = tech.LowVth
		}
		mv, err := NewVthSwap(d, id, to)
		return mv, err == nil
	case 1:
		return NewUpsize(d, id)
	default:
		return NewDownsize(d, id)
	}
}

func relErr(got, want float64) float64 {
	return math.Abs(got-want) / math.Max(math.Abs(want), 1e-30)
}

// TestIncrementalMatchesFromScratch drives the engine through a long
// randomized move sequence and checks, at checkpoints, that its
// incrementally maintained views agree with from-scratch analyses of
// the same design: ssta.Analyze for timing, a fresh Accumulator for the
// factored leakage percentile, and leakage.Exact within the documented
// factored-model gap.
func TestIncrementalMatchesFromScratch(t *testing.T) {
	e, d := testEngine(t, "s432", Config{})
	ids := gateIDs(d)
	rng := rand.New(rand.NewSource(7))

	// Touch both caches so every Apply maintains them incrementally.
	if _, err := e.DelayQuantile(0.99); err != nil {
		t.Fatal(err)
	}
	if _, err := e.LeakQuantile(0.99); err != nil {
		t.Fatal(err)
	}

	applied := 0
	for applied < 200 {
		mv, ok := randomMove(d, ids, rng)
		if !ok {
			continue
		}
		if err := e.Apply(mv); err != nil {
			t.Fatalf("apply %v on gate %d: %v", mv.Kind(), mv.Gate(), err)
		}
		applied++
		if applied%25 != 0 {
			continue
		}

		q, err := e.DelayQuantile(0.99)
		if err != nil {
			t.Fatal(err)
		}
		full, err := ssta.Analyze(d)
		if err != nil {
			t.Fatal(err)
		}
		if re := relErr(q, full.Quantile(0.99)); re > 1e-6 {
			t.Fatalf("move %d: incremental delay q99 %.9g vs full %.9g (rel err %.2g)",
				applied, q, full.Quantile(0.99), re)
		}

		lq, err := e.LeakQuantile(0.99)
		if err != nil {
			t.Fatal(err)
		}
		acc, err := leakage.NewAccumulator(d)
		if err != nil {
			t.Fatal(err)
		}
		if re := relErr(lq, acc.Quantile(0.99)); re > 1e-9 {
			t.Fatalf("move %d: incremental leak q99 %.12g vs fresh accumulator %.12g (rel err %.2g)",
				applied, lq, acc.Quantile(0.99), re)
		}
		exact, err := leakage.Exact(d)
		if err != nil {
			t.Fatal(err)
		}
		if re := relErr(lq, exact.Quantile(0.99)); re > 0.03 {
			t.Fatalf("move %d: factored leak q99 %.6g vs exact %.6g (rel err %.2g)",
				applied, lq, exact.Quantile(0.99), re)
		}
	}
}

// TestRevertRestoresState checks the undo contract: reverting a run of
// applied moves newest first restores the assignment bit-for-bit and
// returns the engine's incrementally maintained quantiles to their
// pre-run values.
func TestRevertRestoresState(t *testing.T) {
	e, d := testEngine(t, "s432", Config{})
	ids := gateIDs(d)
	rng := rand.New(rand.NewSource(11))

	// Scramble the starting point so the revert target is not the
	// trivial all-LVT/min-size assignment.
	for i := 0; i < 40; i++ {
		if mv, ok := randomMove(d, ids, rng); ok {
			if err := e.Apply(mv); err != nil {
				t.Fatal(err)
			}
		}
	}

	vth0 := append([]tech.VthClass(nil), d.Vth...)
	size0 := append([]float64(nil), d.Size...)
	q0, err := e.DelayQuantile(0.99)
	if err != nil {
		t.Fatal(err)
	}
	l0, err := e.LeakQuantile(0.99)
	if err != nil {
		t.Fatal(err)
	}

	var applied []Move
	for len(applied) < 50 {
		mv, ok := randomMove(d, ids, rng)
		if !ok {
			continue
		}
		if err := e.Apply(mv); err != nil {
			t.Fatal(err)
		}
		applied = append(applied, mv)
	}
	for i := len(applied) - 1; i >= 0; i-- {
		if err := e.Revert(applied[i]); err != nil {
			t.Fatal(err)
		}
	}

	for i := range vth0 {
		if d.Vth[i] != vth0[i] {
			t.Fatalf("gate %d: Vth %v after revert, want %v", i, d.Vth[i], vth0[i])
		}
		if d.Size[i] != size0[i] {
			t.Fatalf("gate %d: size %g after revert, want %g", i, d.Size[i], size0[i])
		}
	}
	q1, err := e.DelayQuantile(0.99)
	if err != nil {
		t.Fatal(err)
	}
	l1, err := e.LeakQuantile(0.99)
	if err != nil {
		t.Fatal(err)
	}
	if re := relErr(q1, q0); re > 1e-9 {
		t.Fatalf("delay q99 %.12g after revert, want %.12g (rel err %.2g)", q1, q0, re)
	}
	if re := relErr(l1, l0); re > 1e-9 {
		t.Fatalf("leak q99 %.12g after revert, want %.12g (rel err %.2g)", l1, l0, re)
	}
}

// TestMoveReplayOutOfOrderFails checks the precondition guards: a move
// applied twice, or reverted before being applied, errors instead of
// silently corrupting the assignment.
func TestMoveReplayOutOfOrderFails(t *testing.T) {
	_, d := testEngine(t, "s432", Config{})
	id := gateIDs(d)[0]

	up, ok := NewUpsize(d, id)
	if !ok {
		t.Fatal("expected headroom above min size")
	}
	if err := up.Apply(d); err != nil {
		t.Fatal(err)
	}
	if err := up.Apply(d); err == nil {
		t.Fatal("double Apply should fail the from-index precondition")
	}
	if err := up.Revert(d); err != nil {
		t.Fatal(err)
	}
	if err := up.Revert(d); err == nil {
		t.Fatal("Revert of an unapplied move should fail")
	}

	sw, err := NewVthSwap(d, id, tech.HighVth)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Revert(d); err == nil {
		t.Fatal("Revert of an unapplied swap should fail")
	}
}

// TestScoreIsNetZero checks that exact scoring measures a move without
// changing the engine's observable state, and that its deltas match
// what actually applying the move produces.
func TestScoreIsNetZero(t *testing.T) {
	e, d := testEngine(t, "s432", Config{})
	ids := gateIDs(d)
	rng := rand.New(rand.NewSource(3))

	for n := 0; n < 20; n++ {
		mv, ok := randomMove(d, ids, rng)
		if !ok {
			continue
		}
		q0, err := e.DelayQuantile(e.Config().YieldTarget)
		if err != nil {
			t.Fatal(err)
		}
		l0, err := e.LeakQuantile(e.Config().LeakPercentile)
		if err != nil {
			t.Fatal(err)
		}

		scs, err := e.ScoreAll([]Move{mv})
		if err != nil {
			t.Fatal(err)
		}
		sc := scs[0]

		q1, _ := e.DelayQuantile(e.Config().YieldTarget)
		l1, _ := e.LeakQuantile(e.Config().LeakPercentile)
		if relErr(q1, q0) > 1e-12 || relErr(l1, l0) > 1e-12 {
			t.Fatalf("Score changed state: delay %.12g→%.12g, leak %.12g→%.12g", q0, q1, l0, l1)
		}

		// The scored deltas must match an actual apply.
		if err := e.Apply(mv); err != nil {
			t.Fatal(err)
		}
		qa, _ := e.DelayQuantile(e.Config().YieldTarget)
		la, _ := e.LeakQuantile(e.Config().LeakPercentile)
		if got, want := sc.DLeakQNW, la-l0; math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
			t.Fatalf("DLeakQNW %.12g, applied delta %.12g", got, want)
		}
		if got, want := sc.DMarginPs, -(qa - q0); math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
			t.Fatalf("DMarginPs %.12g, applied delta %.12g", got, want)
		}
		if err := e.Revert(mv); err != nil {
			t.Fatal(err)
		}
	}
}

// candidateMoves builds one Vth flip plus any valid one-step resize for
// every gate — the kind of candidate sweep the batch optimizers score.
func candidateMoves(t *testing.T, d *core.Design) []Move {
	t.Helper()
	var moves []Move
	for _, id := range gateIDs(d) {
		to := tech.HighVth
		if d.Vth[id] == tech.HighVth {
			to = tech.LowVth
		}
		sw, err := NewVthSwap(d, id, to)
		if err != nil {
			t.Fatal(err)
		}
		moves = append(moves, sw)
		if up, ok := NewUpsize(d, id); ok {
			moves = append(moves, up)
		}
		if dn, ok := NewDownsize(d, id); ok {
			moves = append(moves, dn)
		}
	}
	return moves
}

// TestScoreAllMatchesSerial checks the batch scorers against
// one-move-at-a-time scoring, exact and local modes, on a scrambled
// design.
func TestScoreAllMatchesSerial(t *testing.T) {
	e, d := testEngine(t, "s432", Config{})
	ids := gateIDs(d)
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 60; i++ {
		if mv, ok := randomMove(d, ids, rng); ok {
			if err := e.Apply(mv); err != nil {
				t.Fatal(err)
			}
		}
	}

	moves := candidateMoves(t, d)
	batch, err := e.ScoreAll(moves)
	if err != nil {
		t.Fatal(err)
	}
	batchLocal, err := e.ScoreAllLocalCtx(context.Background(), moves)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(moves) || len(batchLocal) != len(moves) {
		t.Fatalf("got %d/%d scores for %d moves", len(batch), len(batchLocal), len(moves))
	}
	for i, mv := range moves {
		sers, err := e.ScoreAll([]Move{mv})
		if err != nil {
			t.Fatal(err)
		}
		ser := sers[0]
		if math.Abs(batch[i].DLeakQNW-ser.DLeakQNW) > 1e-9 ||
			math.Abs(batch[i].DMarginPs-ser.DMarginPs) > 1e-9 ||
			math.Abs(batch[i].DOwnPs-ser.DOwnPs) > 1e-12 {
			t.Fatalf("move %d (%v gate %d): batch %+v vs single %+v",
				i, mv.Kind(), mv.Gate(), batch[i], ser)
		}
		serLocals, err := e.ScoreAllLocalCtx(context.Background(), []Move{mv})
		if err != nil {
			t.Fatal(err)
		}
		serLocal := serLocals[0]
		if math.Abs(batchLocal[i].DLeakQNW-serLocal.DLeakQNW) > 1e-9 ||
			batchLocal[i].DMarginPs != -batchLocal[i].DOwnPs {
			t.Fatalf("move %d: batch local %+v vs single local %+v", i, batchLocal[i], serLocal)
		}
	}
}

// TestRefreshEvery checks that the periodic full rebuild keeps the
// views consistent across the refresh boundary.
func TestRefreshEvery(t *testing.T) {
	e, d := testEngine(t, "s432", Config{RefreshEvery: 16})
	ids := gateIDs(d)
	rng := rand.New(rand.NewSource(23))
	if _, err := e.DelayQuantile(0.99); err != nil {
		t.Fatal(err)
	}
	if _, err := e.LeakQuantile(0.99); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		mv, ok := randomMove(d, ids, rng)
		if !ok {
			continue
		}
		if err := e.Apply(mv); err != nil {
			t.Fatal(err)
		}
	}
	q, err := e.DelayQuantile(0.99)
	if err != nil {
		t.Fatal(err)
	}
	full, err := ssta.Analyze(d)
	if err != nil {
		t.Fatal(err)
	}
	if re := relErr(q, full.Quantile(0.99)); re > 1e-9 {
		t.Fatalf("delay q99 %.12g just after refresh cycle, full %.12g (rel err %.2g)",
			q, full.Quantile(0.99), re)
	}
}

func TestConfigValidation(t *testing.T) {
	d, err := fixture.C17()
	if err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{TmaxPs: 0},
		{TmaxPs: -5},
		{TmaxPs: 100, YieldTarget: 1.2},
		{TmaxPs: 100, LeakPercentile: -0.1},
		{TmaxPs: 100, CornerSigma: 9},
	}
	for _, cfg := range bad {
		if _, err := New(d, cfg); err == nil {
			t.Fatalf("New accepted invalid config %+v", cfg)
		}
	}
	if _, err := New(d, Config{TmaxPs: 100}); err != nil {
		t.Fatalf("New rejected valid config: %v", err)
	}
}
