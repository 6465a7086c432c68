package tech

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/logic"
)

func newLib(t testing.TB) *Library {
	t.Helper()
	lb, err := NewLibrary(Default100nm())
	if err != nil {
		t.Fatal(err)
	}
	return lb
}

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDefaultParamsValidate(t *testing.T) {
	if err := Default100nm().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParamsValidateRejectsBad(t *testing.T) {
	mods := []func(*Params){
		func(p *Params) { p.Vdd = 0 },
		func(p *Params) { p.LeffNom = -1 },
		func(p *Params) { p.VthLow = 0 },
		func(p *Params) { p.VthHigh = p.VthLow },
		func(p *Params) { p.VthHigh = p.Vdd },
		func(p *Params) { p.Alpha = 3 },
		func(p *Params) { p.Alpha = 0.9 }, // powAlpha needs an integer part of 1 or 2
		func(p *Params) { p.SubSwing = 0 },
		func(p *Params) { p.KRoll = -1 },
		func(p *Params) { p.Tau0Ps = 0 },
	}
	for i, mod := range mods {
		p := Default100nm()
		mod(p)
		if err := p.Validate(); err == nil {
			t.Errorf("mod %d: bad params accepted", i)
		}
		if _, err := NewLibrary(p); err == nil {
			t.Errorf("mod %d: NewLibrary accepted bad params", i)
		}
	}
}

func TestVthClass(t *testing.T) {
	if LowVth.String() != "LVT" || HighVth.String() != "HVT" {
		t.Error("VthClass names")
	}
	if !LowVth.Valid() || !HighVth.Valid() || VthClass(7).Valid() {
		t.Error("VthClass validity")
	}
	p := Default100nm()
	if p.Vth(LowVth) != p.VthLow || p.Vth(HighVth) != p.VthHigh {
		t.Error("Params.Vth mapping")
	}
}

func TestHVTRatiosAreEraRealistic(t *testing.T) {
	lb := newLib(t)
	// Dual-Vth leverage: HVT should leak 10×–50× less than LVT.
	r := lb.leak10[HighVth] / lb.leak10[LowVth]
	if r <= 1.0/50 || r >= 1.0/10 {
		t.Errorf("HVT/LVT leak ratio = %g, want within (1/50, 1/10)", r)
	}
	// and cost 10%–30% delay.
	d := lb.tauHVT / lb.tauLVT
	if d <= 1.10 || d >= 1.30 {
		t.Errorf("HVT/LVT delay ratio = %g, want within (1.10, 1.30)", d)
	}
}

func TestUnitInverterNumbers(t *testing.T) {
	lb := newLib(t)
	// FO4 delay of the unit LVT inverter: load = 4×Cin(inv,1).
	fo4 := lb.Delay(logic.Inv, LowVth, 1, 4*lb.InputCap(logic.Inv, 1))
	if fo4 < 20 || fo4 > 60 {
		t.Errorf("FO4 = %g ps, want 20-60 ps for a 100nm-class process", fo4)
	}
	// Unit LVT inverter leakage ~tens of nW.
	leak := lb.SubLeak(logic.Inv, LowVth, 1)
	if leak < 5 || leak > 100 {
		t.Errorf("unit inverter leakage = %g nW, want 5-100 nW", leak)
	}
}

func TestDelayMonotonicity(t *testing.T) {
	lb := newLib(t)
	load := 10.0
	for _, ty := range []logic.GateType{logic.Inv, logic.Nand2, logic.Nor3, logic.Xor2} {
		// Bigger cells are faster at fixed load.
		prev := math.Inf(1)
		for _, s := range lb.Sizes {
			d := lb.Delay(ty, LowVth, s, load)
			if d >= prev {
				t.Errorf("%v: delay not decreasing in size (s=%g: %g >= %g)", ty, s, d, prev)
			}
			prev = d
		}
		// HVT slower than LVT at every size.
		for _, s := range lb.Sizes {
			if lb.Delay(ty, HighVth, s, load) <= lb.Delay(ty, LowVth, s, load) {
				t.Errorf("%v size %g: HVT not slower than LVT", ty, s)
			}
		}
		// More load ⇒ more delay.
		if lb.Delay(ty, LowVth, 2, 20) <= lb.Delay(ty, LowVth, 2, 10) {
			t.Errorf("%v: delay not increasing in load", ty)
		}
	}
}

func TestLeakMonotonicity(t *testing.T) {
	lb := newLib(t)
	for _, ty := range []logic.GateType{logic.Inv, logic.Nand2, logic.Nand4, logic.Or3} {
		prev := 0.0
		for _, s := range lb.Sizes {
			l := lb.Leak(ty, LowVth, s)
			if l <= prev {
				t.Errorf("%v: leakage not increasing in size", ty)
			}
			prev = l
		}
		for _, s := range lb.Sizes {
			if lb.SubLeak(ty, HighVth, s) >= lb.SubLeak(ty, LowVth, s) {
				t.Errorf("%v size %g: HVT not less leaky", ty, s)
			}
		}
	}
}

func TestInputGateIsElectricallyFree(t *testing.T) {
	lb := newLib(t)
	in := lb.Cell(logic.Input, LowVth, 1, 10)
	if lb.Delay(logic.Input, LowVth, 1, 10) != 0 ||
		lb.Leak(logic.Input, LowVth, 1) != 0 ||
		lb.DelayWith(logic.Input, LowVth, 1, 10, 1, 0.01) != 0 ||
		in.Leak(1, 0.01) != 0 {
		t.Error("INPUT pseudo-gate must have zero delay and leakage")
	}
	dL, dV := lb.DelayDerivs(logic.Input, LowVth, 1, 10)
	if dL != 0 || dV != 0 {
		t.Error("INPUT derivatives must be zero")
	}
}

func TestDelayWithMatchesNominalAtZero(t *testing.T) {
	lb := newLib(t)
	for _, ty := range []logic.GateType{logic.Inv, logic.Nand3, logic.Nor2} {
		for _, v := range []VthClass{LowVth, HighVth} {
			d0 := lb.Delay(ty, v, 2, 8)
			dw := lb.DelayWith(ty, v, 2, 8, 0, 0)
			if !almost(d0, dw, 1e-12) {
				t.Errorf("%v/%v: DelayWith(0,0)=%g != Delay=%g", ty, v, dw, d0)
			}
		}
	}
}

func TestDelayDerivsMatchFiniteDifference(t *testing.T) {
	lb := newLib(t)
	const h = 1e-4
	for _, ty := range []logic.GateType{logic.Inv, logic.Nand2, logic.Xor2} {
		for _, v := range []VthClass{LowVth, HighVth} {
			dL, dV := lb.DelayDerivs(ty, v, 3, 12)
			fdL := (lb.DelayWith(ty, v, 3, 12, h, 0) - lb.DelayWith(ty, v, 3, 12, -h, 0)) / (2 * h)
			fdV := (lb.DelayWith(ty, v, 3, 12, 0, h) - lb.DelayWith(ty, v, 3, 12, 0, -h)) / (2 * h)
			if !almost(dL, fdL, 1e-4*math.Abs(fdL)+1e-9) {
				t.Errorf("%v/%v: dD/dL analytic %g vs FD %g", ty, v, dL, fdL)
			}
			if !almost(dV, fdV, 1e-4*math.Abs(fdV)+1e-9) {
				t.Errorf("%v/%v: dD/dVth analytic %g vs FD %g", ty, v, dV, fdV)
			}
		}
	}
}

func TestLeakWithExponentialForm(t *testing.T) {
	lb := newLib(t)
	bL, bV := lb.LeakExponents()
	for _, ty := range []logic.GateType{logic.Inv, logic.Nand2, logic.Nor4} {
		nomSub := lb.SubLeak(ty, LowVth, 2)
		gate := lb.GateLeak(ty, 2)
		c := lb.Cell(ty, LowVth, 2, 0)
		for _, dl := range []float64{-5, -1, 0, 2, 6} {
			for _, dv := range []float64{-0.03, 0, 0.02} {
				want := nomSub*math.Exp(-bL*dl-bV*dv) + gate
				got := c.Leak(dl, dv)
				if !almost(got, want, 1e-9*want) {
					t.Errorf("%v: Leak(%g,%g) = %g, want %g", ty, dl, dv, got, want)
				}
			}
		}
	}
	// Shorter channel must leak exponentially more.
	inv := lb.Cell(logic.Inv, LowVth, 1, 0)
	l0 := inv.Leak(0, 0)
	lShort := inv.Leak(-3*3.6, 0) // −3σ at 6% variation
	if lShort < 2*l0 {
		t.Errorf("−3σ channel length leakage %g < 2× nominal %g; variation model too weak", lShort, l0)
	}
}

func TestDelayWithClampsExtremeExcursions(t *testing.T) {
	lb := newLib(t)
	// Huge positive ΔVth or negative ΔL must not produce Inf/NaN.
	for _, dl := range []float64{-100, 0, 100} {
		for _, dv := range []float64{-0.5, 0, 2.0} {
			d := lb.DelayWith(logic.Nand2, HighVth, 1, 10, dl, dv)
			if math.IsNaN(d) || math.IsInf(d, 0) || d <= 0 {
				t.Errorf("DelayWith(%g,%g) = %g", dl, dv, d)
			}
		}
	}
}

func TestSizeIndex(t *testing.T) {
	lb := newLib(t)
	for i, s := range lb.Sizes {
		if got := lb.SizeIndex(s); got != i {
			t.Errorf("SizeIndex(%g) = %d, want %d", s, got, i)
		}
	}
	if lb.SizeIndex(7) != -1 {
		t.Error("SizeIndex(7) should be -1")
	}
}

func TestInputCapScalesWithSizeAndEffort(t *testing.T) {
	lb := newLib(t)
	cu := lb.P.CinUnitFF
	if got := lb.InputCap(logic.Inv, 1); !almost(got, cu, 1e-12) {
		t.Errorf("Cin(inv,1) = %g, want %g", got, cu)
	}
	if got := lb.InputCap(logic.Inv, 4); !almost(got, 4*cu, 1e-12) {
		t.Errorf("Cin(inv,4) = %g", got)
	}
	if got := lb.InputCap(logic.Nand2, 3); !almost(got, 4.0/3.0*3*cu, 1e-12) {
		t.Errorf("Cin(nand2,3) = %g", got)
	}
}

// Property: leakage saved by an LVT→HVT swap is always positive and
// delay penalty always positive, for all types and sizes — the move
// set of the optimizer relies on this sign structure.
func TestSwapSignStructure(t *testing.T) {
	lb := newLib(t)
	f := func(tyRaw uint8, sizeIdx uint8) bool {
		ty := logic.GateType(tyRaw%uint8(logic.NumGateTypes-1)) + 1 // skip Input
		s := lb.Sizes[int(sizeIdx)%len(lb.Sizes)]
		dLeak := lb.Leak(ty, LowVth, s) - lb.Leak(ty, HighVth, s)
		dDelay := lb.Delay(ty, HighVth, s, 10) - lb.Delay(ty, LowVth, s, 10)
		return dLeak > 0 && dDelay > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestLogicalEffortAccessors(t *testing.T) {
	if traits[logic.Inv].g != 1 || traits[logic.Inv].p != 1 {
		t.Error("inverter traits must be the logical-effort unit")
	}
	if traits[logic.Nand2].g <= 1 || traits[logic.Nor2].g <= traits[logic.Nand2].g {
		t.Error("NOR must have more logical effort than NAND (weak pMOS stacks)")
	}
}
