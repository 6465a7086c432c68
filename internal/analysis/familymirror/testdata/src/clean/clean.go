// Fixture: legal Family usage — mutations routed through the Family,
// corner engines used only for their read surface, and mutating calls
// on engines that never came from a Family accessor.
package clean

import "repro/internal/engine"

func commit(f *engine.Family, m engine.Move) error {
	if err := f.Apply(m); err != nil {
		return err
	}
	return f.Revert(m)
}

func read(f *engine.Family) (float64, error) {
	total, err := f.Primary().Yield()
	if err != nil {
		return 0, err
	}
	for _, e := range f.Engines() {
		res, err := e.Timing()
		if err != nil {
			return 0, err
		}
		_ = res
	}
	return total, nil
}

// standalone engines (not corner views of a Family) may mutate freely.
func standalone(e *engine.Engine, m engine.Move) error {
	if err := e.Apply(m); err != nil {
		return err
	}
	return e.Refresh()
}
