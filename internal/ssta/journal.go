package ssta

// Journal support: an exact scoring round (see engine.ScoreAll)
// records every arrival form an Update overwrites and restores them
// when the round ends, returning the timer bitwise to its pre-round
// state. Recording is O(cones touched): the circuit-delay form is
// snapshotted once, each arrival only on its first overwrite. With
// the structure-of-arrays layout the replaced rows are copied into
// three flat undo slices (Update now overwrites rows in place, so the
// old storage cannot be aliased the way the per-gate []Canonical
// layout allowed), and restore is a contiguous copy-back per touched
// row — bitwise, by construction. The delay snapshot stays by value:
// refold always allocates Result.Delay freshly.
type incJournal struct {
	delay Canonical
	ids   []int     // nodes touched, in first-touch order
	mean  []float64 // pre-touch row values, parallel to ids
	rand  []float64
	sens  []float64 // len(ids)×NumPC row-major

	// First-touch detection by generation stamp: stamp[id] == gen marks
	// id as already recorded this round. Bumping gen retires a whole
	// round in O(1) — no per-round map clearing on the scoring hot path.
	stamp []int
	gen   int
}

// StartJournal begins recording. Every Update until RestoreJournal is
// undone exactly by RestoreJournal; nesting is not supported (a second
// Start before Restore re-snapshots and forgets the first).
func (inc *Incremental) StartJournal() {
	j := inc.journal
	if j == nil {
		j = inc.spare
		if j == nil {
			j = &incJournal{}
		}
		inc.spare = nil
		inc.journal = j
	}
	if len(j.stamp) < len(inc.res.mean) {
		j.stamp = make([]int, len(inc.res.mean))
		j.gen = 0
	}
	j.gen++
	j.delay = inc.res.Delay
	j.ids = j.ids[:0]
	j.mean = j.mean[:0]
	j.rand = j.rand[:0]
	j.sens = j.sens[:0]
}

// RestoreJournal puts the timing view back to its StartJournal state
// bitwise and stops recording. A no-op if no journal is active.
func (inc *Incremental) RestoreJournal() {
	j := inc.journal
	if j == nil {
		return
	}
	k := inc.res.NumPC
	for i, id := range j.ids {
		inc.res.mean[id] = j.mean[i]
		inc.res.rand[id] = j.rand[i]
		copy(inc.res.sens[id*k:(id+1)*k], j.sens[i*k:(i+1)*k])
	}
	inc.res.Delay = j.delay
	inc.journal = nil
	inc.spare = j // keep the allocations for the next round
}

// note records the arrival row of node id before its first overwrite.
func (j *incJournal) note(inc *Incremental, id int) {
	if j.stamp[id] == j.gen {
		return
	}
	j.stamp[id] = j.gen
	j.ids = append(j.ids, id)
	j.mean = append(j.mean, inc.res.mean[id])
	j.rand = append(j.rand, inc.res.rand[id])
	k := inc.res.NumPC
	j.sens = append(j.sens, inc.res.sens[id*k:(id+1)*k]...)
}
