package engine

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/tech"
)

// scoreBitsEqual compares two scores bitwise: the scorers claim
// bit-for-bit equality with their references, not a tolerance.
func scoreBitsEqual(a, b Score) bool {
	return math.Float64bits(a.DLeakQNW) == math.Float64bits(b.DLeakQNW) &&
		math.Float64bits(a.DMarginPs) == math.Float64bits(b.DMarginPs) &&
		math.Float64bits(a.DOwnPs) == math.Float64bits(b.DOwnPs) &&
		math.Float64bits(a.DLeakNomNW) == math.Float64bits(b.DLeakNomNW)
}

// freshCloneLocal is the per-move reference for local scoring: clone
// the engine's design and accumulator, apply the move, update, and read
// the change of the quantile.
func freshCloneLocal(t *testing.T, e *Engine, m Move) float64 {
	t.Helper()
	dc := e.d.Clone()
	acc := e.acc.CloneFor(dc)
	p := e.cfg.LeakPercentile
	q0 := acc.Quantile(p)
	if err := m.Apply(dc); err != nil {
		t.Fatal(err)
	}
	acc.Update(m.Gate())
	return acc.Quantile(p) - q0
}

// freshCloneExact is the reference for exact batch scoring: one clone
// of the engine's design and caches, every move applied, measured and
// reverted on it in order.
func freshCloneExact(t *testing.T, e *Engine, moves []Move) []Score {
	t.Helper()
	dc := e.d.Clone()
	acc := e.acc.CloneFor(dc)
	inc := e.inc.CloneFor(dc)
	p, eta, tmax := e.cfg.LeakPercentile, e.cfg.YieldTarget, e.cfg.TmaxPs
	q0, margin0 := acc.Quantile(p), tmax-inc.Result().Quantile(eta)
	out := make([]Score, len(moves))
	for i, m := range moves {
		id := m.Gate()
		own0, nom0 := dc.GateDelay(id), dc.GateLeak(id)
		if err := m.Apply(dc); err != nil {
			t.Fatal(err)
		}
		acc.Update(id)
		inc.Update(id)
		out[i] = Score{
			DLeakQNW:   acc.Quantile(p) - q0,
			DMarginPs:  (tmax - inc.Result().Quantile(eta)) - margin0,
			DOwnPs:     dc.GateDelay(id) - own0,
			DLeakNomNW: dc.GateLeak(id) - nom0,
		}
		if err := m.Revert(dc); err != nil {
			t.Fatal(err)
		}
		acc.Update(id)
		inc.Update(id)
	}
	return out
}

// stateBits snapshots the engine's observable state bitwise: the
// assignment, the factored leakage view, and every arrival form plus
// the circuit-delay form of the timing view.
func stateBits(t *testing.T, e *Engine) []uint64 {
	t.Helper()
	var out []uint64
	add := func(vs ...float64) {
		for _, v := range vs {
			out = append(out, math.Float64bits(v))
		}
	}
	for id := range e.d.Vth {
		add(float64(e.d.Vth[id]), e.d.Size[id])
	}
	an, err := e.acc.Analysis()
	if err != nil {
		t.Fatal(err)
	}
	add(an.MeanNW, an.StdNW, an.Fit.Mu, an.Fit.Sigma, an.GateLeakNW, e.acc.M)
	return append(out, timingBits(t, e)...)
}

func bitsEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestScoreMatchesFreshClones is the scoring-contract property test.
// It interleaves exact and local batch rounds with committed moves,
// peels and reverts, forced cache refreshes, and stale moves that must
// make the call error, and asserts after every round that (a) every
// ScoreAllLocalCtx delta equals, bit for bit, applying the
// move on a fresh clone of the engine, (b) every ScoreAll score equals
// serial scoring on one fresh clone, and (c) the engine's assignment,
// leakage and timing state are bitwise unchanged by the call.
func TestScoreMatchesFreshClones(t *testing.T) {
	e, d := testEngine(t, "s432", Config{RefreshEvery: 64})
	ids := gateIDs(d)
	rng := rand.New(rand.NewSource(11))

	// Build both caches so exact and local rounds are available.
	if _, err := e.DelayQuantile(0.99); err != nil {
		t.Fatal(err)
	}
	if _, err := e.LeakQuantile(0.99); err != nil {
		t.Fatal(err)
	}

	batch := func(n int) []Move {
		var mvs []Move
		for len(mvs) < n {
			if mv, ok := randomMove(d, ids, rng); ok {
				mvs = append(mvs, mv)
			}
		}
		return mvs
	}
	// stale returns a move whose precondition a committed apply has
	// already consumed.
	stale := func() Move {
		id := ids[rng.Intn(len(ids))]
		to := tech.HighVth
		if d.Vth[id] == tech.HighVth {
			to = tech.LowVth
		}
		mv, err := NewVthSwap(d, id, to)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Apply(mv); err != nil {
			t.Fatal(err)
		}
		return mv
	}

	for round := 0; round < 40; round++ {
		moves := batch(8 + rng.Intn(32))
		exact := rng.Intn(2) == 0

		before := stateBits(t, e)
		if exact {
			want := freshCloneExact(t, e, moves)
			got, err := e.ScoreAll(moves)
			if err != nil {
				t.Fatalf("round %d: ScoreAll: %v", round, err)
			}
			for i := range moves {
				if !scoreBitsEqual(got[i], want[i]) {
					t.Fatalf("round %d move %d: scored %+v, fresh-clone reference %+v",
						round, i, got[i], want[i])
				}
			}
		} else {
			want := make([]float64, len(moves))
			for i, m := range moves {
				want[i] = freshCloneLocal(t, e, m)
			}
			got, err := e.ScoreAllLocalCtx(context.Background(), moves, nil)
			if err != nil {
				t.Fatalf("round %d: ScoreAllLocalCtx: %v", round, err)
			}
			for i := range moves {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("round %d move %d: local delta %v, fresh-clone reference %v",
						round, i, got[i], want[i])
				}
			}
		}
		if !bitsEqual(before, stateBits(t, e)) {
			t.Fatalf("round %d: ScoreAll(exact=%v) disturbed the engine's state", round, exact)
		}

		// Interleave engine mutations between rounds.
		switch rng.Intn(4) {
		case 0: // commit a few moves directly
			for i := 0; i < 1+rng.Intn(5); i++ {
				if mv, ok := randomMove(d, ids, rng); ok {
					if err := e.Apply(mv); err != nil {
						t.Fatal(err)
					}
				}
			}
		case 1: // apply a few moves, peel some, then revert the rest or keep them
			var applied []Move
			for i := 0; i < 2+rng.Intn(6); i++ {
				if mv, ok := randomMove(d, ids, rng); ok {
					if err := e.Apply(mv); err != nil {
						t.Fatal(err)
					}
					applied = append(applied, mv)
				}
			}
			for len(applied) > 0 && rng.Intn(2) == 0 {
				if err := e.Revert(applied[len(applied)-1]); err != nil {
					t.Fatal(err)
				}
				applied = applied[:len(applied)-1]
			}
			if rng.Intn(2) == 0 {
				for i := len(applied) - 1; i >= 0; i-- {
					if err := e.Revert(applied[i]); err != nil {
						t.Fatal(err)
					}
				}
			}
		case 2: // forced full refresh
			e.Refresh()
		case 3: // a stale move mid-batch must make both scorers error
			// and leave the engine untouched
			poisoned := append(batch(7), stale())
			before := stateBits(t, e)
			if _, err := e.ScoreAllLocalCtx(context.Background(), poisoned, nil); err == nil {
				t.Fatalf("round %d: stale move scored locally without error", round)
			}
			if _, err := e.ScoreAll(poisoned); err == nil {
				t.Fatalf("round %d: stale move scored exactly without error", round)
			}
			if !bitsEqual(before, stateBits(t, e)) {
				t.Fatalf("round %d: a failed scoring call disturbed the engine's state", round)
			}
		}
	}
}
