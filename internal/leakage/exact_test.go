package leakage

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/fixture"
	"repro/internal/logic"
	"repro/internal/stats"
	"repro/internal/tech"
)

// exactPairwise is the reference Exact: the O(n²k) pair loop that
// evaluates exp(e_i·e_j) afresh for every gate pair.
func exactPairwise(d *core.Design) (*Analysis, error) {
	exps := newExponents(d)
	var ids []int
	for _, g := range d.Circuit.Gates() {
		if g.Type != logic.Input {
			ids = append(ids, g.ID)
		}
	}
	gateLeak := 0.0
	m := make([]float64, len(ids))
	for i, id := range ids {
		m[i] = d.GateSubLeak(id) * exps.of(id).expHalf
		gateLeak += d.GateGateLeak(id)
	}
	mean := 0.0
	for _, v := range m {
		mean += v
	}
	second := 0.0
	for i, idi := range ids {
		exi := exps.of(idi)
		second += m[i] * m[i] * exi.expFull
		ei := exi.e
		for j := i + 1; j < len(ids); j++ {
			ej := exps.of(ids[j]).e[:len(ei)]
			cov := 0.0
			for k, v := range ei {
				cov += v * ej[k]
			}
			second += 2 * m[i] * m[j] * math.Exp(cov)
		}
	}
	an, err := finish(mean, second, gateLeak)
	return &an, err
}

// randomize assigns every logic gate a random Vth class and ladder
// size.
func randomize(d *core.Design, rng *rand.Rand) {
	for _, g := range d.Circuit.Gates() {
		if g.Type == logic.Input {
			continue
		}
		d.Vth[g.ID] = tech.VthClass(rng.Intn(int(tech.NumVthClasses)))
		d.Size[g.ID] = d.Lib.Sizes[rng.Intn(len(d.Lib.Sizes))]
	}
}

// TestExactMatchesPairwiseReference pins the cell-pair exponent table
// in Exact to the per-pair reference bit for bit.
func TestExactMatchesPairwiseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, name := range []string{"s432", "s880", "s1908"} {
		d, err := fixture.Suite(name)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 3; trial++ {
			randomize(d, rng)
			got, err := Exact(d)
			if err != nil {
				t.Fatal(err)
			}
			want, err := exactPairwise(d)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				what      string
				got, want float64
			}{
				{"MeanNW", got.MeanNW, want.MeanNW},
				{"StdNW", got.StdNW, want.StdNW},
				{"Quantile(0.99)", got.Quantile(0.99), want.Quantile(0.99)},
			} {
				if math.Float64bits(c.got) != math.Float64bits(c.want) {
					t.Errorf("%s trial %d: %s %v, pairwise reference %v", name, trial, c.what, c.got, c.want)
				}
			}
		}
	}
}

// TestQuantileIfMatchesUpdate checks the read-only what-if quantile
// against moving the gate on a clone, updating the clone's
// accumulator and reading its quantile — bit for bit, and without
// writing the original accumulator.
func TestQuantileIfMatchesUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	d, err := fixture.Suite("s880")
	if err != nil {
		t.Fatal(err)
	}
	randomize(d, rng)
	acc, err := NewAccumulator(d)
	if err != nil {
		t.Fatal(err)
	}
	var ids []int
	for _, g := range d.Circuit.Gates() {
		if g.Type != logic.Input {
			ids = append(ids, g.ID)
		}
	}
	const p = 0.99
	z := stats.NormalQuantile(p)
	q0 := acc.Quantile(p)
	for trial := 0; trial < 200; trial++ {
		id := ids[rng.Intn(len(ids))]
		v := tech.VthClass(rng.Intn(int(tech.NumVthClasses)))
		s := d.Lib.Sizes[rng.Intn(len(d.Lib.Sizes))]
		sub, gate := d.GateLeakAs(id, v, s)
		got := acc.QuantileIf(id, sub, gate, z)

		dc := d.Clone()
		ref := acc.CloneFor(dc)
		dc.Vth[id], dc.Size[id] = v, s
		ref.Update(id)
		if want := ref.Quantile(p); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d gate %d → (%v, %g): QuantileIf %v, clone update %v", trial, id, v, s, got, want)
		}
		if q := acc.Quantile(p); math.Float64bits(q) != math.Float64bits(q0) {
			t.Fatalf("trial %d: QuantileIf changed the accumulator's quantile %v → %v", trial, q0, q)
		}
	}
}

// accBits is the bit pattern of every sum and cached per-gate value of
// an accumulator.
func accBits(a *Accumulator) []uint64 {
	var out []uint64
	for _, s := range [][]float64{a.pg, a.v, a.b, {a.M, a.Q, a.d1, a.d2, a.gateLeak, a.second2}} {
		for _, v := range s {
			out = append(out, math.Float64bits(v))
		}
	}
	return out
}

// TestResetMatchesNewAccumulator moves random gates through Update,
// then Resets: every sum and cached per-gate value must equal a fresh
// NewAccumulator's bit for bit, and the Reset must allocate nothing.
func TestResetMatchesNewAccumulator(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, name := range []string{"s432", "s1908", "q344"} {
		d, err := fixture.Suite(name)
		if err != nil {
			t.Fatal(err)
		}
		acc, err := NewAccumulator(d)
		if err != nil {
			t.Fatal(err)
		}
		var ids []int
		for _, g := range d.Circuit.Gates() {
			if g.Type != logic.Input {
				ids = append(ids, g.ID)
			}
		}
		for round := 0; round < 4; round++ {
			for step := 0; step < 40; step++ {
				id := ids[rng.Intn(len(ids))]
				d.Vth[id] = tech.VthClass(rng.Intn(int(tech.NumVthClasses)))
				d.Size[id] = d.Lib.Sizes[rng.Intn(len(d.Lib.Sizes))]
				acc.Update(id)
			}
			acc.Reset()
			fresh, err := NewAccumulator(d)
			if err != nil {
				t.Fatal(err)
			}
			got, want := accBits(acc), accBits(fresh)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s round %d: accumulator word %d after Reset %v, NewAccumulator %v",
						name, round, i, math.Float64frombits(got[i]), math.Float64frombits(want[i]))
				}
			}
		}
		if allocs := testing.AllocsPerRun(5, acc.Reset); allocs > 0 {
			t.Errorf("%s: Reset allocates %g times, want 0", name, allocs)
		}
	}
}

// TestExactQuantileMatchesExact checks the accumulator's exact
// analysis against Exact bit for bit across random assignments, on
// one accumulator whose table outlives the assignments, and that a
// call after the first allocates nothing.
func TestExactQuantileMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, name := range []string{"s432", "s1908", "q344"} {
		d, err := fixture.Suite(name)
		if err != nil {
			t.Fatal(err)
		}
		acc, err := NewAccumulator(d)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 3; trial++ {
			randomize(d, rng)
			for _, p := range []float64{0.5, 0.99} {
				got, err := acc.ExactQuantile(p)
				if err != nil {
					t.Fatal(err)
				}
				an, err := Exact(d)
				if err != nil {
					t.Fatal(err)
				}
				if want := an.Quantile(p); math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s trial %d: ExactQuantile(%g) %v, Exact %v", name, trial, p, got, want)
				}
			}
		}
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := acc.ExactQuantile(0.99); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 0 {
			t.Errorf("%s: ExactQuantile allocates %g times, want 0", name, allocs)
		}
	}
}
