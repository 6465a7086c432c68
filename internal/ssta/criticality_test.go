package ssta_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/fixture"
	"repro/internal/logic"
	"repro/internal/ssta"
	"repro/internal/sta"
	"repro/internal/variation"
)

func critOf(t testing.TB, d *core.Design) []float64 {
	t.Helper()
	r, err := ssta.Analyze(d)
	if err != nil {
		t.Fatal(err)
	}
	crit, err := r.Criticality(d)
	if err != nil {
		t.Fatal(err)
	}
	return crit
}

func TestCriticalityBounds(t *testing.T) {
	d, err := fixture.Suite("s432")
	if err != nil {
		t.Fatal(err)
	}
	crit := critOf(t, d)
	for _, g := range d.Circuit.Gates() {
		c := crit[g.ID]
		if c < 0 || c > 1 || math.IsNaN(c) {
			t.Fatalf("criticality(%s) = %g", g.Name, c)
		}
	}
}

func TestCriticalityHighOnNominalCriticalPath(t *testing.T) {
	d, err := fixture.Suite("s432")
	if err != nil {
		t.Fatal(err)
	}
	crit := critOf(t, d)
	sr, err := sta.Analyze(d, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	// The nominal critical path's gates must be far more critical than
	// the average gate.
	sum, n := 0.0, 0
	onPath := map[int]bool{}
	for _, id := range sr.CriticalPath(d, nil) {
		onPath[id] = true
		sum += crit[id]
		n++
	}
	pathAvg := sum / float64(n)
	var offSum float64
	var offN int
	for _, g := range d.Circuit.Gates() {
		if g.Type != logic.Input && !onPath[g.ID] {
			offSum += crit[g.ID]
			offN++
		}
	}
	offAvg := offSum / float64(offN)
	if pathAvg < 3*offAvg {
		t.Errorf("critical-path avg criticality %g not well above off-path %g", pathAvg, offAvg)
	}
	if pathAvg < 0.15 {
		t.Errorf("critical-path avg criticality %g suspiciously low", pathAvg)
	}
}

func TestCriticalityMatchesMonteCarloPathTracing(t *testing.T) {
	// Golden check: sample dies, run per-die STA, trace the per-die
	// critical path, and count how often each gate appears on it; the
	// analytic criticality must track these frequencies.
	d, err := fixture.Suite("s432")
	if err != nil {
		t.Fatal(err)
	}
	crit := critOf(t, d)
	order, err := d.Circuit.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	const samples = 800
	counts := make([]float64, d.Circuit.NumNodes())
	delays := make([]float64, d.Circuit.NumNodes())
	vm := d.Var
	z := make([]float64, vm.NumPC)
	ex := make([]float64, vm.NumCells())
	for s := 0; s < samples; s++ {
		rng := rand.New(rand.NewSource(int64(s)*7919 + 3))
		vm.SampleGlobals(rng, z)
		vm.Excursions(z, ex)
		for _, g := range d.Circuit.Gates() {
			if g.Type == logic.Input {
				continue
			}
			dL := vm.DeltaL(ex[vm.CellOf(g.X, g.Y)], rng.NormFloat64())
			dV := vm.DeltaVth(rng.NormFloat64())
			delays[g.ID] = d.GateDelayWith(g.ID, dL, dV)
		}
		r, err := sta.AnalyzeDelays(d.Circuit, delays, 1e6, d.Lib.P.DffSetupPs)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range r.CriticalPath(d, nil) {
			counts[id]++
		}
		_ = order
	}
	// Compare on gates with meaningful criticality. Tolerances are
	// loose: the analytic number approximates P(on critical path)
	// under independence assumptions.
	for _, g := range d.Circuit.Gates() {
		if g.Type == logic.Input {
			continue
		}
		mc := counts[g.ID] / samples
		an := crit[g.ID]
		if mc > 0.5 && an < 0.2 {
			t.Errorf("%s: MC criticality %.2f but analytic %.2f", g.Name, mc, an)
		}
		if mc < 0.02 && an > 0.5 {
			t.Errorf("%s: MC criticality %.2f but analytic %.2f", g.Name, mc, an)
		}
	}
}

func TestCriticalityDeterministicLimit(t *testing.T) {
	// With variation switched off, criticality degenerates to the
	// 0/1 indicator of lying on a critical path.
	d, err := fixture.Suite("s499")
	if err != nil {
		t.Fatal(err)
	}
	cfg := d.Var.Cfg
	cfg.SigmaLNm = 0
	cfg.SigmaVthIndV = 0
	vmZero, err := variation.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.Var = vmZero
	crit := critOf(t, d)
	sr, err := sta.Analyze(d, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range sr.CriticalPath(d, nil) {
		if d.Circuit.Gate(id).Type == logic.Input {
			continue
		}
		if crit[id] < 0.999 {
			t.Errorf("deterministic limit: path node %d criticality %g, want 1", id, crit[id])
		}
	}
}
