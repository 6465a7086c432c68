package opt_test

import (
	"io"
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/opt"
	"repro/internal/scenario"
	"repro/internal/yield"
)

// TestISVerify checks the optional importance-sampled verification of
// the statistical optimizer's final design on s432 at 1.3·Dmin: it
// leaves the trajectory and the end state bit for bit as they are
// without it, it is deterministic in its seed, it is skipped under a
// scenario matrix, and its adaptive budget stops at the default
// relative-error target or at the sample cap.
func TestISVerify(t *testing.T) {
	pr, err := exp.NewContext(io.Discard).Prepare("s432", nil)
	if err != nil {
		t.Fatal(err)
	}
	// run returns the optimized design, the result and the run's
	// progress events, one per kept move or round.
	run := func(mutate func(*opt.Options)) (*core.Design, *opt.StatResult, []opt.Progress) {
		t.Helper()
		o := pr.Opt
		mutate(&o)
		var trace []opt.Progress
		o.Progress = func(ev opt.Progress) { trace = append(trace, ev) }
		d := pr.Base.Clone()
		res, err := opt.Statistical(d, o)
		if err != nil {
			t.Fatal(err)
		}
		return d, res, trace
	}

	plainD, plain, plainTrace := run(func(*opt.Options) {})
	if plain.ISYield != nil {
		t.Fatal("ISYield set without ISVerify")
	}
	verify := func(o *opt.Options) { o.ISVerify = &opt.ISVerifyConfig{Seed: 3} }
	d, res, trace := run(verify)

	// Verification only reads the final design.
	if !slices.Equal(trace, plainTrace) {
		t.Errorf("ISVerify changed the trajectory: %d progress events, %d without", len(trace), len(plainTrace))
	}
	if res.Moves != plain.Moves || res.SizeUps != plain.SizeUps ||
		res.VthSwaps != plain.VthSwaps || res.SizeDowns != plain.SizeDowns {
		t.Errorf("moves %d (%d up, %d swaps, %d down) with ISVerify, %d (%d up, %d swaps, %d down) without",
			res.Moves, res.SizeUps, res.VthSwaps, res.SizeDowns,
			plain.Moves, plain.SizeUps, plain.VthSwaps, plain.SizeDowns)
	}
	if !slices.Equal(d.Vth, plainD.Vth) || !slices.Equal(d.Size, plainD.Size) {
		t.Error("ISVerify changed the final assignment")
	}
	if math.Float64bits(res.LeakPctNW) != math.Float64bits(plain.LeakPctNW) {
		t.Errorf("LeakPctNW %v with ISVerify, %v without", res.LeakPctNW, plain.LeakPctNW)
	}

	est := res.ISYield
	if est == nil {
		t.Fatal("ISVerify set but ISYield is nil")
	}
	t.Logf("seed 3: yield %.4f (SSTA %.4f), %d samples, ESS %.1f, RelErr %.3f",
		est.Yield, res.YieldAtTmax, est.Samples, est.ESS, est.RelErr)
	_, again, _ := run(verify)
	if a := again.ISYield; a == nil || a.Samples != est.Samples ||
		!slices.Equal(estBits(a), estBits(est)) {
		t.Errorf("same seed, different estimate: %+v then %+v", *est, a)
	}

	// The default budget: batches of 200, 200, 400, … samples until
	// RelErr ≤ 0.10 or 20,000 samples.
	const initial, maxSamples, relErrTarget = 200, 20000, 0.10
	if est.RelErr > relErrTarget && est.Samples != maxSamples {
		t.Errorf("stopped at %d samples with RelErr %v: want RelErr ≤ %v or the %d-sample cap",
			est.Samples, est.RelErr, relErrTarget, maxSamples)
	}
	if n := est.Samples; n != maxSamples && (n < initial || n%initial != 0 || (n/initial)&(n/initial-1) != 0) {
		t.Errorf("stopped at %d samples, which is neither 200·2^k nor the cap", n)
	}
	if est.Yield <= 0 || est.Yield > 1 || est.ESS <= 0 {
		t.Errorf("implausible estimate %+v", *est)
	}

	m := &scenario.Spec{Corners: []string{"vn", "vh"}}
	if _, res, _ := run(func(o *opt.Options) { verify(o); o.Scenario = m }); res.ISYield != nil {
		t.Errorf("ISYield %+v under a scenario spec, want nil", *res.ISYield)
	}
}

// estBits returns the bits of an estimate's float fields.
func estBits(e *yield.ISEstimate) []uint64 {
	return []uint64{math.Float64bits(e.Yield), math.Float64bits(e.FailProb),
		math.Float64bits(e.StdErr), math.Float64bits(e.RelErr), math.Float64bits(e.ESS)}
}
