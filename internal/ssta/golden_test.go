package ssta_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/fixture"
	"repro/internal/logic"
	"repro/internal/ssta"
	"repro/internal/tech"
)

// analyzeGolden holds the SHA-256 of every bit Analyze returns for the
// designs of TestAnalyzeGolden: each node's arrival mean, private σ
// and sensitivities in node order, then the circuit-delay form. A
// change to any hash means the SSTA arithmetic moved: every yield,
// slack and optimizer trajectory downstream moves with it.
var analyzeGolden = map[string]string{
	"s432/default":  "f1dbd3b9ee7ee5798a63c2e474554d7639ad810b539ea245d1db7a12b618488e",
	"s432/mixed":    "bba902e7f10939438f874a9545630028a75cc804816fb4d10b1de63d7b8afbdb",
	"s1908/default": "dca0c7544a97f121fa2c185072fb77e75d1660c2ec2486fd5f6ee46652eb8638",
	"s1908/mixed":   "be6bf3c5400765f63ae8317e05bc67de86630c0b6f8119350ab87651b1c95455",
	"q344/default":  "f2c9d05f0eff355ae49531443f00aa634c5dfbabc98e11ebd4a70f1b0ca89f29",
	"q344/mixed":    "9bc798a624ae3795a36433674a9723fb9600d846f15f0f7a75353bad25c207eb",
}

// mixAssignment sets every third gate to high Vth and cycles the sizes
// through the first five ladder steps, so both Vth classes and several
// sizes are timed.
func mixAssignment(t *testing.T, d *core.Design) {
	t.Helper()
	for _, g := range d.Circuit.Gates() {
		if g.Type == logic.Input {
			continue
		}
		if g.ID%3 == 0 {
			if err := d.SetVth(g.ID, tech.HighVth); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.SetSize(g.ID, d.Lib.Sizes[g.ID%5]); err != nil {
			t.Fatal(err)
		}
	}
}

// resultHash hashes the Float64bits of every arrival row and of the
// circuit-delay form of r.
func resultHash(r *ssta.Result, n int) string {
	h := sha256.New()
	var b [8]byte
	put := func(vs ...float64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	for id := 0; id < n; id++ {
		a := r.Arrival(id)
		put(a.Mean, a.Rand)
		put(a.Sens...)
	}
	put(r.Delay.Mean, r.Delay.Rand)
	put(r.Delay.Sens...)
	return hex.EncodeToString(h.Sum(nil))
}

// TestAnalyzeGolden pins Analyze bit for bit on two combinational
// circuits and one sequential circuit, each at the fixture's default
// assignment and at a mixed one.
func TestAnalyzeGolden(t *testing.T) {
	for _, name := range []string{"s432", "s1908", "q344"} {
		for _, assign := range []string{"default", "mixed"} {
			key := name + "/" + assign
			d, err := fixture.Suite(name)
			if err != nil {
				t.Fatal(err)
			}
			if assign == "mixed" {
				mixAssignment(t, d)
			}
			r, err := ssta.Analyze(d)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			if got := resultHash(r, d.Circuit.NumNodes()); got != analyzeGolden[key] {
				t.Errorf("%s: analysis hash %s, want %s", key, got, analyzeGolden[key])
			}
		}
	}
}
