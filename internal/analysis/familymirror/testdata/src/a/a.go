// Fixture: corner engines handed out by a Family receiving mutating
// calls directly — every one bypasses the mirror, so sibling corners'
// caches desynchronize.
package a

import "repro/internal/engine"

func direct(f *engine.Family, m engine.Move) {
	f.Primary().Apply(m) // want `corner engine from Family accessor receives Apply directly`
}

func indexed(f *engine.Family, m engine.Move) {
	f.Engines()[1].Revert(m) // want `corner engine from Family accessor receives Revert directly`
}

func bound(f *engine.Family, m engine.Move) {
	e := f.Primary()
	e.Apply(m) // want `corner engine "e" \(bound from a Family accessor\) receives Apply directly`
}

func boundSlice(f *engine.Family) {
	es := f.Engines()
	worst := es[0]
	worst.Refresh() // want `corner engine "worst" \(bound from a Family accessor\) receives Refresh directly`
}

func ranged(f *engine.Family, m engine.Move) {
	for _, e := range f.Engines() {
		e.Apply(m) // want `corner engine "e" \(bound from a Family accessor\) receives Apply directly`
	}
}
