// Fixture: search.Policy callbacks holding pointers to shared
// evaluation state across rounds, next to the engine-handle and
// incumbent-rebinding patterns that stay legal.
package policy

import (
	"context"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/search"
)

func badPolicy(e *engine.Engine, d *core.Design) search.Policy {
	return search.Policy{
		Optimizer: "fixture",
		Propose: func(_ context.Context, t *search.Tally) (*search.Round, error) {
			use(d) // want `search policy captures shared core\.Design "d"`
			return nil, nil
		},
		Verify: func() (bool, error) {
			return d.TotalLeak() > 0, nil // want `search policy captures shared core\.Design "d"`
		},
	}
}

func use(*core.Design) {}

func goodPolicy(f *engine.Family) (search.Policy, func() *core.Design) {
	var best *core.Design
	p := search.Policy{
		Optimizer: "fixture",
		Propose: func(_ context.Context, t *search.Tally) (*search.Round, error) {
			// The family handle is the sanctioned window: a call-time
			// fetch sees the post-commit state the driver vouches for.
			d := f.Design()
			use(d)
			return nil, nil
		},
		Verify: func() (bool, error) { return true, nil },
		Accepted: func(mv engine.Move, t *search.Tally) error {
			// Rebinding a captured variable is incumbent bookkeeping, not
			// a touch of the state it used to point to.
			best = f.Design().Clone()
			return nil
		},
	}
	return p, func() *core.Design { return best }
}

// familyPolicy: the corner family is a sanctioned handle like the
// engine — its aggregate accessors are call-time reads the driver
// keeps consistent between rounds.
func familyPolicy(f *engine.Family) search.Policy {
	return search.Policy{
		Optimizer: "fixture",
		Propose: func(_ context.Context, t *search.Tally) (*search.Round, error) {
			use(f.Design())
			return nil, nil
		},
		Verify: func() (bool, error) { return true, nil },
	}
}
