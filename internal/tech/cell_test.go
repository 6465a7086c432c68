package tech

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/logic"
)

// TestPowAlphaMatchesPow: the split α-power path must return
// math.Pow's exact bits over the whole reachable range of the delay
// model's base (Vdd−VthLow)/(Vdd−vthEff), whose top end is set by the
// Vdd−0.01 clamp, for integer parts 1 and 2 and the fractions on both
// sides of Pow's 0.5 split.
func TestPowAlphaMatchesPow(t *testing.T) {
	for _, alpha := range []float64{1, 1.25, 1.3, 1.5, 1.7, 2} {
		p := Default100nm()
		p.Alpha = alpha
		lb, err := NewLibrary(p)
		if err != nil {
			t.Fatal(err)
		}
		xMax := (p.Vdd - p.VthLow) / 0.01
		rng := rand.New(rand.NewSource(int64(alpha * 100)))
		xs := []float64{xMax, 1, math.Exp(-6)}
		for len(xs) < 100000 {
			xs = append(xs, math.Exp(-6+rng.Float64()*(6+math.Log(xMax))))
		}
		for _, x := range xs {
			got, want := lb.powAlpha(x), math.Pow(x, alpha)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("α=%g: powAlpha(%v) = %v, math.Pow = %v", alpha, x, got, want)
			}
		}
	}
}

// refDelayWith and refLeakWith spell DelayWith and the leakage model
// out in one expression each, with math.Pow and nothing folded: the
// exactness oracle for Cell and for the split α-power path.
func refDelayWith(lb *Library, t logic.GateType, v VthClass, size, loadFF, dLnm, dVthV float64) float64 {
	p := lb.P
	vthEff := p.Vth(v) + p.KRoll*dLnm + dVthV
	if vthEff >= p.Vdd-0.01 {
		vthEff = p.Vdd - 0.01
	}
	leff := p.LeffNom + dLnm
	if leff < p.LeffNom*0.5 {
		leff = p.LeffNom * 0.5
	}
	tau := lb.tau0Eff * (leff / p.LeffNom) *
		math.Pow((p.Vdd-p.VthLow)/(p.Vdd-vthEff), p.Alpha)
	return tau * (loadFF/(size*p.CinUnitFF) + traits[t].p)
}

func refLeakWith(lb *Library, t logic.GateType, v VthClass, size, dLnm, dVthV float64) float64 {
	beta := lb.LeakBeta()
	dvth := lb.P.KRoll*dLnm + dVthV
	return lb.SubLeak(t, v, size)*math.Exp(-beta*dvth) + lb.GateLeak(t, size)
}

// TestCellMatchesWith: a bound Cell must evaluate bit for bit what
// DelayWith (and refDelayWith and refLeakWith) return, for
// every gate type × Vth class × ladder size, at random excursions
// that also hit both clamps (vthEff ≥ Vdd−0.01 and leff < LeffNom/2),
// at the reference temperature and a hot corner.
func TestCellMatchesWith(t *testing.T) {
	hot := Default100nm()
	hot.TempC = 110
	for _, p := range []*Params{Default100nm(), hot} {
		lb, err := NewLibrary(p)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(17))
		clampV, clampL := 0, 0
		for ty := logic.GateType(0); int(ty) < logic.NumGateTypes; ty++ {
			for _, v := range []VthClass{LowVth, HighVth} {
				for _, size := range lb.Sizes {
					load := 1 + 40*rng.Float64()
					c := lb.Cell(ty, v, size, load)
					for k := 0; k < 40; k++ {
						dL := 4 * rng.NormFloat64()
						dV := 0.03 * rng.NormFloat64()
						switch k % 8 {
						case 6: // past the barely-turns-on clamp
							dV = 1 + rng.Float64()
						case 7: // past the half-length clamp
							dL = -p.LeffNom*0.5 - 1 - 10*rng.Float64()
						}
						if p.Vth(v)+p.KRoll*dL+dV >= p.Vdd-0.01 {
							clampV++
						}
						if p.LeffNom+dL < p.LeffNom*0.5 {
							clampL++
						}
						d, l := c.Delay(dL, dV), c.Leak(dL, dV)
						if dw := lb.DelayWith(ty, v, size, load, dL, dV); math.Float64bits(d) != math.Float64bits(dw) {
							t.Fatalf("%v/%v/%g at (%g,%g): cell delay %v vs DelayWith %v",
								ty, v, size, dL, dV, d, dw)
						}
						if ty == logic.Input {
							if d != 0 || l != 0 {
								t.Fatalf("INPUT cell at (%g,%g) = (%v,%v), want 0", dL, dV, d, l)
							}
							continue
						}
						rd, rl := refDelayWith(lb, ty, v, size, load, dL, dV), refLeakWith(lb, ty, v, size, dL, dV)
						if math.Float64bits(d) != math.Float64bits(rd) || math.Float64bits(l) != math.Float64bits(rl) {
							t.Fatalf("%v/%v/%g at (%g,%g): cell (%v,%v) vs reference (%v,%v)",
								ty, v, size, dL, dV, d, l, rd, rl)
						}
					}
				}
			}
		}
		if clampV == 0 || clampL == 0 {
			t.Fatalf("clamps not exercised: %d Vth, %d Leff", clampV, clampL)
		}
	}
}
