package ssta

import (
	"math/rand"
	"testing"

	"repro/internal/fixture"
	"repro/internal/logic"
)

// TestResetMatchesAnalyze drives random updates, undos and resets
// through one timer on s432, s1908 and q344. After every Reset each
// row and the circuit-delay form must equal a fresh Analyze of the
// design bit for bit, the memo must match the design, no undo record
// may survive, and the Reset must allocate nothing.
func TestResetMatchesAnalyze(t *testing.T) {
	for _, name := range []string{"s432", "s1908", "q344"} {
		d, err := fixture.Suite(name)
		if err != nil {
			t.Fatal(err)
		}
		inc, err := NewIncremental(d)
		if err != nil {
			t.Fatal(err)
		}
		var ids []int
		for _, g := range d.Circuit.Gates() {
			if g.Type != logic.Input {
				ids = append(ids, g.ID)
			}
		}
		rng := rand.New(rand.NewSource(43))
		for round := 0; round < 6; round++ {
			var last int
			for step := 0; step < 25; step++ {
				last = ids[rng.Intn(len(ids))]
				undo := toggle(t, d, last, rng)
				inc.Update(last)
				if rng.Intn(4) == 0 {
					undo()
					inc.Undo(last)
				}
			}
			inc.Reset()
			fresh, err := Analyze(d)
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(rowBits(inc.res), rowBits(fresh)) {
				t.Fatalf("%s round %d: rows after Reset differ from a fresh Analyze", name, round)
			}
			if inc.Undo(last) {
				t.Fatalf("%s round %d: Undo(%d) accepted after a Reset", name, round, last)
			}
			checkMemo(t, inc, d, name)
		}
		if allocs := testing.AllocsPerRun(5, inc.Reset); allocs > 0 {
			t.Errorf("%s: Reset allocates %g times, want 0", name, allocs)
		}
	}
}
