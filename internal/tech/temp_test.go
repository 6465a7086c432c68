package tech

import (
	"math"
	"testing"

	"repro/internal/logic"
)

func libAt(t *testing.T, tempC float64) *Library {
	t.Helper()
	p := Default100nm()
	p.TempC = tempC
	lb, err := NewLibrary(p)
	if err != nil {
		t.Fatal(err)
	}
	return lb
}

func TestTemperatureReferenceIsNeutral(t *testing.T) {
	// TempC = 0 (unset) and TempC = 25 are the same characterization.
	a := libAt(t, 0)
	b := libAt(t, 25)
	if a.Delay(logic.Inv, LowVth, 1, 10) != b.Delay(logic.Inv, LowVth, 1, 10) {
		t.Error("unset temperature differs from 25°C")
	}
	if a.SubLeak(logic.Inv, LowVth, 1) != b.SubLeak(logic.Inv, LowVth, 1) {
		t.Error("leakage differs at the reference temperature")
	}
}

func TestHotSiliconLeaksMoreAndRunsSlower(t *testing.T) {
	cold := libAt(t, 25)
	hot := libAt(t, 110)
	// Era rule of thumb: going 25→110°C multiplies subthreshold
	// leakage by roughly an order of magnitude (swing widens AND the
	// prefactor grows) and costs ~10-30% delay.
	lRatio := hot.SubLeak(logic.Inv, LowVth, 1) / cold.SubLeak(logic.Inv, LowVth, 1)
	if lRatio < 3 || lRatio > 50 {
		t.Errorf("110°C/25°C LVT leakage ratio = %g, want order-of-magnitude", lRatio)
	}
	dRatio := hot.Delay(logic.Inv, LowVth, 1, 10) / cold.Delay(logic.Inv, LowVth, 1, 10)
	if dRatio < 1.05 || dRatio > 1.6 {
		t.Errorf("110°C/25°C delay ratio = %g, want 1.05-1.6", dRatio)
	}
	// Dual-Vth leverage shrinks with temperature (the swing widens, so
	// the fixed ΔVth buys fewer decades).
	if hot.leak10[HighVth]/hot.leak10[LowVth] <= cold.leak10[HighVth]/cold.leak10[LowVth] {
		t.Error("HVT/LVT ratio should move toward 1 at high temperature")
	}
	// Variation sensitivity also softens: β = ln10/S(T) drops.
	if hot.LeakBeta() >= cold.LeakBeta() {
		t.Error("LeakBeta should decrease with temperature")
	}
}

func TestTemperatureExponentialConsistency(t *testing.T) {
	// Cell.Leak must stay exactly exponential with the effective beta
	// at any temperature.
	hot := libAt(t, 110)
	bL, bV := hot.LeakExponents()
	if math.Abs(bV-hot.LeakBeta()) > 1e-12 {
		t.Fatalf("LeakExponents bV %g != LeakBeta %g", bV, hot.LeakBeta())
	}
	nom := hot.SubLeak(logic.Nand2, LowVth, 2)
	gate := hot.GateLeak(logic.Nand2, 2)
	c := hot.Cell(logic.Nand2, LowVth, 2, 0)
	got := c.Leak(-3, 0.01)
	want := nom*math.Exp(-bL*(-3)-bV*0.01) + gate
	if math.Abs(got-want) > 1e-9*want {
		t.Errorf("LeakWith at temperature: %g vs %g", got, want)
	}
}

func TestTemperatureValidation(t *testing.T) {
	p := Default100nm()
	p.TempC = 200
	if err := p.Validate(); err == nil {
		t.Error("200°C accepted")
	}
	p.TempC = -100
	if err := p.Validate(); err == nil {
		t.Error("-100°C accepted")
	}
	p.TempC = 110
	if err := p.Validate(); err != nil {
		t.Errorf("110°C rejected: %v", err)
	}
}
