package search

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fixture"
	"repro/internal/logic"
)

func testEngine(t *testing.T) (*engine.Engine, *core.Design) {
	t.Helper()
	d, err := fixture.Suite("s432")
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(d, engine.Config{TmaxPs: 1000})
	if err != nil {
		t.Fatal(err)
	}
	return e, d
}

// upsizes returns n one-step upsize moves on distinct gates.
func upsizes(t *testing.T, d *core.Design, n int) []engine.Move {
	t.Helper()
	var out []engine.Move
	for _, g := range d.Circuit.Gates() {
		if len(out) == n {
			break
		}
		if g.Type == logic.Input {
			continue
		}
		if mv, ok := engine.NewUpsize(d, g.ID); ok {
			out = append(out, mv)
		}
	}
	if len(out) != n {
		t.Fatalf("wanted %d upsize moves, found %d", n, len(out))
	}
	return out
}

func TestRunRequiresProposeAndVerify(t *testing.T) {
	e, _ := testEngine(t)
	if _, err := Run(context.Background(), e, Policy{Optimizer: "t"}); err == nil {
		t.Fatal("Run accepted a policy without Propose/Verify")
	}
}

func TestFirstAcceptKeepsFirstSurvivor(t *testing.T) {
	e, d := testEngine(t)
	moves := upsizes(t, d, 3)
	orig := make([]int, 3)
	for i, mv := range moves {
		orig[i] = d.SizeIndex(mv.Gate())
	}

	round := 0
	var rejected []engine.Move
	var acceptedMv engine.Move
	tally, err := Run(context.Background(), e, Policy{
		Optimizer: "test-first",
		Propose: func(_ context.Context, _ *Tally) (*Round, error) {
			round++
			if round > 1 {
				return nil, nil
			}
			return &Round{Moves: moves}, nil
		},
		// Reject the first candidate, accept the second.
		Verify:   func() (bool, error) { return len(rejected) == 1, nil },
		Rejected: func(mv engine.Move) { rejected = append(rejected, mv) },
		Accepted: func(mv engine.Move, tl *Tally) error {
			acceptedMv = mv
			if tl.Moves != 1 || tl.SizeUps != 1 {
				t.Errorf("tally at accept = %+v", *tl)
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if tally.Moves != 1 || tally.SizeUps != 1 || tally.Rounds != 1 || tally.Peeled != 0 {
		t.Fatalf("tally = %+v", *tally)
	}
	if len(rejected) != 1 || rejected[0].Gate() != moves[0].Gate() {
		t.Fatalf("rejected = %v", rejected)
	}
	if acceptedMv == nil || acceptedMv.Gate() != moves[1].Gate() {
		t.Fatalf("accepted = %v", acceptedMv)
	}
	// First reverted, second kept, third never touched.
	if got := d.SizeIndex(moves[0].Gate()); got != orig[0] {
		t.Errorf("rejected move not reverted: size index %d", got)
	}
	if got := d.SizeIndex(moves[1].Gate()); got != orig[1]+1 {
		t.Errorf("accepted move not applied: size index %d", got)
	}
	if got := d.SizeIndex(moves[2].Gate()); got != orig[2] {
		t.Errorf("unreached move touched: size index %d", got)
	}
}

func TestBatchPeelsNewestFirst(t *testing.T) {
	e, d := testEngine(t)
	moves := upsizes(t, d, 3)
	orig := make([]int, 3)
	for i, mv := range moves {
		orig[i] = d.SizeIndex(mv.Gate())
	}

	round := 0
	verifies := 0
	var rejected []engine.Move
	tally, err := Run(context.Background(), e, Policy{
		Optimizer: "test-batch",
		Propose: func(_ context.Context, _ *Tally) (*Round, error) {
			round++
			if round > 1 {
				return nil, nil
			}
			return &Round{Moves: moves, Mode: Batch}, nil
		},
		// Fail twice: the two newest moves peel off, the oldest commits.
		Verify: func() (bool, error) {
			verifies++
			return verifies > 2, nil
		},
		Rejected: func(mv engine.Move) { rejected = append(rejected, mv) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if tally.Moves != 1 || tally.SizeUps != 1 || tally.Peeled != 2 || tally.Rounds != 1 {
		t.Fatalf("tally = %+v", *tally)
	}
	if len(rejected) != 2 || rejected[0].Gate() != moves[2].Gate() || rejected[1].Gate() != moves[1].Gate() {
		t.Fatalf("peel order wrong: %v", rejected)
	}
	if got := d.SizeIndex(moves[0].Gate()); got != orig[0]+1 {
		t.Errorf("surviving move not committed: size index %d", got)
	}
	for i := 1; i < 3; i++ {
		if got := d.SizeIndex(moves[i].Gate()); got != orig[i] {
			t.Errorf("peeled move %d not reverted: size index %d", i, got)
		}
	}
}

func TestEmptyRoundsSpendRoundsWithoutMoves(t *testing.T) {
	e, _ := testEngine(t)
	round := 0
	tally, err := Run(context.Background(), e, Policy{
		Optimizer: "test-empty",
		Propose: func(_ context.Context, _ *Tally) (*Round, error) {
			round++
			if round > 3 {
				return nil, nil
			}
			return &Round{}, nil
		},
		Verify:    func() (bool, error) { return true, nil },
		RoundDone: func(int, *Tally) (bool, error) { t.Error("RoundDone ran for an empty round"); return true, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if tally.Rounds != 3 || tally.Moves != 0 {
		t.Fatalf("tally = %+v", *tally)
	}
}

func TestRoundDoneStops(t *testing.T) {
	e, d := testEngine(t)
	moves := upsizes(t, d, 1)
	tally, err := Run(context.Background(), e, Policy{
		Optimizer: "test-stop",
		Propose: func(_ context.Context, _ *Tally) (*Round, error) {
			return &Round{Moves: moves}, nil // would loop forever
		},
		Verify: func() (bool, error) { return false, nil },
		RoundDone: func(accepted int, _ *Tally) (bool, error) {
			return accepted == 0, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if tally.Rounds != 1 || tally.Moves != 0 {
		t.Fatalf("tally = %+v", *tally)
	}
}

func TestCancelledContextStopsBeforePropose(t *testing.T) {
	e, _ := testEngine(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tally, err := Run(ctx, e, Policy{
		Optimizer: "test-ctx",
		Propose: func(_ context.Context, _ *Tally) (*Round, error) {
			t.Error("Propose ran after cancellation")
			return nil, nil
		},
		Verify: func() (bool, error) { return true, nil },
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if tally == nil || tally.Rounds != 0 {
		t.Fatalf("tally = %+v", tally)
	}
}

func TestAcceptedErrorPropagatesWithTally(t *testing.T) {
	e, d := testEngine(t)
	moves := upsizes(t, d, 1)
	boom := errors.New("boom")
	tally, err := Run(context.Background(), e, Policy{
		Optimizer: "test-err",
		Propose: func(_ context.Context, _ *Tally) (*Round, error) {
			return &Round{Moves: moves}, nil
		},
		Verify:   func() (bool, error) { return true, nil },
		Accepted: func(engine.Move, *Tally) error { return boom },
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if tally.Moves != 1 {
		t.Fatalf("tally should reflect the kept move: %+v", *tally)
	}
}

// TestPipelinedBatchPeelToEmpty drains a Batch round down to nothing:
// every move peels, the engine state is fully restored, and
// RoundDone's accepted==0 stop rule ends the search. The name and the
// serial subtest date from when a pipelined driver ran the same case;
// the serial driver is now the only one.
func TestPipelinedBatchPeelToEmpty(t *testing.T) {
	t.Run("serial", func(t *testing.T) {
		e, d := testEngine(t)
		moves := upsizes(t, d, 3)
		orig := make([]int, len(moves))
		for i, mv := range moves {
			orig[i] = d.SizeIndex(mv.Gate())
		}
		round := 0
		tally, err := Run(context.Background(), e, Policy{
			Optimizer: "test-peel-empty",
			Propose: func(_ context.Context, _ *Tally) (*Round, error) {
				if round > 0 {
					t.Error("search continued after a fully-peeled round")
					return nil, nil
				}
				round++
				return &Round{Moves: moves, Mode: Batch}, nil
			},
			Verify: func() (bool, error) { return false, nil },
			RoundDone: func(accepted int, _ *Tally) (bool, error) {
				return accepted == 0, nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if *tally != (Tally{Peeled: 3, Rounds: 1}) {
			t.Fatalf("tally = %+v", *tally)
		}
		for i, mv := range moves {
			if got := d.SizeIndex(mv.Gate()); got != orig[i] {
				t.Errorf("peeled move %d not reverted: size index %d", i, got)
			}
		}
	})
}

// TestFailedStepLeavesDesignMatchingTally fails a step mid-round and
// checks that the design agrees with the returned Tally: a failure
// before the keep decision puts the round's moves back, and a failing
// Accepted hook still counts every move the round keeps.
func TestFailedStepLeavesDesignMatchingTally(t *testing.T) {
	boom := errors.New("boom")
	for _, tc := range []struct {
		name     string
		mode     Mode
		round    func(moves []engine.Move) []engine.Move // nil: the moves as drawn
		verify   func(call int) (bool, error)
		accepted func(engine.Move, *Tally) error
		wantErr  string // substring of the returned error
		want     Tally
	}{
		{
			// The first candidate bounces, the second one's check fails.
			name: "first-accept verify error",
			mode: FirstAccept,
			verify: func(call int) (bool, error) {
				if call == 1 {
					return false, nil
				}
				return false, boom
			},
			wantErr: "boom",
			want:    Tally{Rounds: 1},
		},
		{
			// One move peels, then the check on the remaining two fails.
			name: "batch verify error",
			mode: Batch,
			verify: func(call int) (bool, error) {
				if call == 1 {
					return false, nil
				}
				return false, boom
			},
			wantErr: "boom",
			want:    Tally{Rounds: 1, Peeled: 1},
		},
		{
			// The third move repeats the first, so its Apply fails the
			// precondition after two moves are on the design.
			name:    "batch apply error",
			mode:    Batch,
			round:   func(moves []engine.Move) []engine.Move { return []engine.Move{moves[0], moves[1], moves[0]} },
			verify:  func(int) (bool, error) { return true, nil },
			wantErr: "move expected",
			want:    Tally{Rounds: 1},
		},
		{
			name:     "batch accepted error",
			mode:     Batch,
			verify:   func(int) (bool, error) { return true, nil },
			accepted: func(engine.Move, *Tally) error { return boom },
			wantErr:  "boom",
			want:     Tally{Moves: 3, SizeUps: 3, Rounds: 1},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, d := testEngine(t)
			moves := upsizes(t, d, 3)
			orig := make([]int, len(moves))
			for i, mv := range moves {
				orig[i] = d.SizeIndex(mv.Gate())
			}
			round := moves
			if tc.round != nil {
				round = tc.round(moves)
			}
			calls := 0
			tally, err := Run(context.Background(), e, Policy{
				Optimizer: "test-failed-step",
				Propose: func(_ context.Context, tl *Tally) (*Round, error) {
					if tl.Rounds > 0 {
						return nil, nil
					}
					return &Round{Moves: round, Mode: tc.mode}, nil
				},
				Verify: func() (bool, error) {
					calls++
					return tc.verify(calls)
				},
				Accepted: tc.accepted,
			})
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want one containing %q", err, tc.wantErr)
			}
			if *tally != tc.want {
				t.Fatalf("tally = %+v, want %+v", *tally, tc.want)
			}
			applied := 0
			for i, mv := range moves {
				switch got := d.SizeIndex(mv.Gate()); got {
				case orig[i]:
				case orig[i] + 1:
					applied++
				default:
					t.Fatalf("move %d: size index %d, started at %d", i, got, orig[i])
				}
			}
			if applied != tally.Moves {
				t.Fatalf("%d moves left on the design, tally counts %d", applied, tally.Moves)
			}
		})
	}
}
