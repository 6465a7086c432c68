// Fixture: core.Design's validating setters called from inside
// search.Policy callbacks (forbidden — the live engine cannot see
// them) next to the plain optimizer-code setter calls that stay legal
// (preparing a start point, restoring an incumbent).
package policy

import (
	"context"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/search"
	"repro/internal/tech"
)

func badPolicy(f *engine.Family) search.Policy {
	return search.Policy{
		Optimizer: "fixture",
		Propose: func(_ context.Context, t *search.Tally) (*search.Round, error) {
			d := f.Design()
			if err := d.SetVth(0, tech.HighVth); err != nil { // want `core\.Design\.SetVth bypasses the live engine's move log`
				return nil, err
			}
			return nil, nil
		},
		Verify: func() (bool, error) { return true, nil },
		Accepted: func(mv engine.Move, t *search.Tally) error {
			f.Design().CopyAssignmentFrom(nil) // want `core\.Design\.CopyAssignmentFrom bypasses the live engine's move log`
			return nil
		},
	}
}

// setup runs before an engine exists; the validating setters are the
// approved mutation path here.
func setup(d *core.Design, best *core.Design) error {
	if err := d.SetSizeIndex(0, 0); err != nil {
		return err
	}
	d.CopyAssignmentFrom(best)
	return d.SetVth(0, tech.LowVth)
}
