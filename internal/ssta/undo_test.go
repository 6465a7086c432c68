package ssta

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/fixture"
	"repro/internal/logic"
	"repro/internal/tech"
)

// rowBits is the bit pattern of every arrival row (mean, σ and sens)
// plus the circuit-delay form.
func rowBits(r *Result) []uint64 {
	var out []uint64
	for _, s := range [][]float64{r.mean, r.rand, r.sens, r.Delay.Sens} {
		for _, v := range s {
			out = append(out, math.Float64bits(v))
		}
	}
	return append(out, math.Float64bits(r.Delay.Mean), math.Float64bits(r.Delay.Rand))
}

func sameBits(a, b []uint64) bool {
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

// toggle flips gate id's Vth class or steps its size, returning the
// function that puts it back.
func toggle(t *testing.T, d *core.Design, id int, rng *rand.Rand) (undo func()) {
	t.Helper()
	vth, size := d.Vth[id], d.Size[id]
	if rng.Intn(2) == 0 {
		to := tech.HighVth
		if vth == tech.HighVth {
			to = tech.LowVth
		}
		if err := d.SetVth(id, to); err != nil {
			t.Fatal(err)
		}
	} else {
		si := d.SizeIndex(id)
		ni := si + 1
		if ni >= len(d.Lib.Sizes) {
			ni = si - 1
		}
		if err := d.SetSizeIndex(id, ni); err != nil {
			t.Fatal(err)
		}
	}
	return func() {
		if err := d.SetVth(id, vth); err != nil {
			t.Fatal(err)
		}
		if err := d.SetSize(id, size); err != nil {
			t.Fatal(err)
		}
	}
}

// checkMemo asserts every memo entry (filled on demand) equals the
// uncached Design value bit for bit.
func checkMemo(t *testing.T, inc *Incremental, d *core.Design, label string) {
	t.Helper()
	for _, g := range d.Circuit.Gates() {
		load, delay := inc.LoadDelay(g.ID)
		if math.Float64bits(load) != math.Float64bits(d.Load(g.ID)) {
			t.Fatalf("%s: node %d memo load %v, Design.Load %v", label, g.ID, load, d.Load(g.ID))
		}
		if g.Type == logic.Input {
			continue
		}
		if math.Float64bits(delay) != math.Float64bits(d.GateDelay(g.ID)) {
			t.Fatalf("%s: node %d memo delay %v, Design.GateDelay %v", label, g.ID, delay, d.GateDelay(g.ID))
		}
	}
}

// TestUndoRestoresRowsExactly drives Update(id), a design revert and
// Undo(id) on random gates: every row and the circuit delay must come
// back bit for bit, and the memo must match the design afterwards.
func TestUndoRestoresRowsExactly(t *testing.T) {
	for _, name := range []string{"s880", "q344"} {
		d, err := fixture.Suite(name)
		if err != nil {
			t.Fatal(err)
		}
		inc, err := NewIncremental(d)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(29))
		var ids []int
		for _, g := range d.Circuit.Gates() {
			if g.Type != logic.Input {
				ids = append(ids, g.ID)
			}
		}
		for trial := 0; trial < 60; trial++ {
			id := ids[rng.Intn(len(ids))]
			before := rowBits(inc.res)
			undo := toggle(t, d, id, rng)
			inc.Update(id)
			undo()
			if !inc.Undo(id) {
				t.Fatalf("%s trial %d: Undo(%d) declined right after Update(%d)", name, trial, id, id)
			}
			if !sameBits(rowBits(inc.res), before) {
				t.Fatalf("%s trial %d: rows after Undo(%d) differ from before Update", name, trial, id)
			}
			if inc.Undo(id) {
				t.Fatalf("%s trial %d: a second Undo(%d) was accepted", name, trial, id)
			}
			checkMemo(t, inc, d, name)
			// Keep some moves so the next trial starts elsewhere.
			if trial%3 == 0 {
				toggle(t, d, id, rng)
				inc.Update(id)
			}
		}
		full, err := Analyze(d)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(full.Delay.Mean-inc.res.Delay.Mean) > 1e-9*full.Delay.Mean {
			t.Fatalf("%s: delay mean %v after undos, full analysis %v", name, inc.res.Delay.Mean, full.Delay.Mean)
		}
	}
}

// TestUndoDeclines checks every case Undo must refuse without touching
// the timing view: another gate, a record superseded by a second
// Update, a batch Update, and a rebuilt timer.
func TestUndoDeclines(t *testing.T) {
	d, err := fixture.Suite("s432")
	if err != nil {
		t.Fatal(err)
	}
	inc, err := NewIncremental(d)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	outs := d.Circuit.Outputs()
	a, b := outs[0], outs[1]

	toggle(t, d, a, rng)
	inc.Update(a)
	after := rowBits(inc.res)
	if inc.Undo(b) {
		t.Fatal("Undo accepted a gate the last Update was not seeded with")
	}
	if !sameBits(rowBits(inc.res), after) {
		t.Fatal("a declined Undo changed the rows")
	}

	toggle(t, d, b, rng)
	inc.Update(b)
	if inc.Undo(a) {
		t.Fatal("Undo accepted a gate whose Update a second Update superseded")
	}

	toggle(t, d, a, rng)
	inc.Update(a, b)
	if inc.Undo(a) || inc.Undo(b) {
		t.Fatal("Undo accepted a batch Update")
	}

	toggle(t, d, a, rng)
	inc.Update(a)
	rebuilt, err := NewIncremental(d)
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt.Undo(a) || inc.CloneFor(d.Clone()).Undo(a) {
		t.Fatal("a rebuilt or cloned timer accepted an Undo")
	}
	if !inc.Undo(a) {
		t.Fatal("rebuilding another timer consumed this timer's record")
	}
}

// TestIncrementalSlackMatchesResult pins the memoized slack pass to
// Result.StatisticalSlack bit for bit, across updates and a reused
// destination buffer.
func TestIncrementalSlackMatchesResult(t *testing.T) {
	d, err := fixture.Suite("s1908")
	if err != nil {
		t.Fatal(err)
	}
	inc, err := NewIncremental(d)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(37))
	tmax := 1.3 * inc.res.Delay.Mean
	var buf []float64
	for step := 0; step < 20; step++ {
		id := d.Circuit.Outputs()[rng.Intn(len(d.Circuit.Outputs()))]
		if step%2 == 1 {
			id = rng.Intn(d.Circuit.NumNodes())
			if d.Circuit.Gate(id).Type == logic.Input {
				continue
			}
		}
		toggle(t, d, id, rng)
		inc.Update(id)
		want, err := inc.res.StatisticalSlack(d, tmax, 0.99)
		if err != nil {
			t.Fatal(err)
		}
		buf = inc.StatisticalSlack(tmax, 0.99, buf)
		if len(buf) != len(want) {
			t.Fatalf("step %d: %d slacks, want %d", step, len(buf), len(want))
		}
		for i := range want {
			if math.Float64bits(buf[i]) != math.Float64bits(want[i]) {
				t.Fatalf("step %d: node %d slack %v, Result.StatisticalSlack %v", step, i, buf[i], want[i])
			}
		}
	}
}
