package opt

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// TestSortFuncMatchesSortSlice pins the candidate sort: slices.SortFunc
// with byScoreDesc must order tie-heavy candidate lists exactly as the
// sort.Slice call it replaced, or the optimizer's tie-breaking — and
// with it every trajectory — would change. Inputs cover random scores
// drawn from a few levels, sorted and reverse-sorted runs, and nearly
// sorted lists, at lengths across pdqsort's insertion-sort, ninther
// and pattern-breaking thresholds.
func TestSortFuncMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 4000; trial++ {
		n := rng.Intn(700)
		levels := 1 + rng.Intn(12)
		cands := make([]statCand, n)
		for i := range cands {
			cands[i] = statCand{dMetric: float64(i), score: float64(rng.Intn(levels))}
		}
		switch trial % 4 {
		case 1:
			slices.SortFunc(cands, func(a, b statCand) int { return int(a.score - b.score) })
		case 2:
			slices.SortFunc(cands, byScoreDesc)
		case 3:
			slices.SortFunc(cands, byScoreDesc)
			for k := 0; k < 3 && n > 1; k++ {
				i, j := rng.Intn(n), rng.Intn(n)
				cands[i], cands[j] = cands[j], cands[i]
			}
		}
		want := slices.Clone(cands)
		sort.Slice(want, func(i, j int) bool { return want[i].score > want[j].score })
		got := slices.Clone(cands)
		slices.SortFunc(got, byScoreDesc)
		for i := range want {
			if got[i].dMetric != want[i].dMetric {
				t.Fatalf("trial %d (n=%d, %d levels): position %d holds candidate %v, sort.Slice put %v there",
					trial, n, levels, i, got[i].dMetric, want[i].dMetric)
			}
		}
	}
}
