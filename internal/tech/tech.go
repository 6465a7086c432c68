// Package tech models the technology and the dual-Vth standard-cell
// library: alpha-power-law gate delay, subthreshold (and gate) leakage,
// input/parasitic capacitance, and the delay/leakage sensitivities to
// channel-length and threshold-voltage variation that the statistical
// analyses consume.
//
// The paper characterized cells in SPICE on a 100nm BPTM process; this
// package substitutes the closed-form models those SPICE runs reduce
// to (see DESIGN.md §3):
//
//   - delay:   d = τ(Vth)·(Cl/(s·Cu) + p(type)),   τ ∝ Leff/(Vdd−Vth)^α
//   - leakage: P = Vdd·I₀·w(type)·s·sf(type)·10^(−Vth/S)
//
// with threshold roll-off Vth_eff = Vth + k_roll·ΔLeff coupling both to
// the Gaussian ΔLeff: delay becomes (approximately) linear and leakage
// exactly exponential — i.e. lognormal — in ΔLeff, which is the
// structure the statistical optimizer exploits.
//
// Units used throughout the repository: ps (delay), fF (capacitance),
// nm (length), V (voltage), nW (leakage power). kΩ·fF = ns·10⁻³ = ps,
// so the numbers stay O(1..1000).
package tech

import (
	"fmt"
	"math"

	"repro/internal/logic"
	"repro/internal/stats"
)

// VthClass selects one of the two threshold-voltage flavors every cell
// is available in.
type VthClass uint8

const (
	// LowVth is the fast, leaky flavor.
	LowVth VthClass = iota
	// HighVth is the slow, low-leakage flavor.
	HighVth

	// NumVthClasses is the number of threshold flavors.
	NumVthClasses = 2
)

// String names the Vth class.
func (v VthClass) String() string {
	switch v {
	case LowVth:
		return "LVT"
	case HighVth:
		return "HVT"
	}
	return fmt.Sprintf("VthClass(%d)", uint8(v))
}

// Valid reports whether v is a defined class.
func (v VthClass) Valid() bool { return v < NumVthClasses }

// Params holds the process-level constants of a technology node.
type Params struct {
	Name string

	Vdd     float64 // supply voltage [V]
	LeffNom float64 // nominal effective channel length [nm]

	VthLow  float64 // low-Vth nominal threshold [V]
	VthHigh float64 // high-Vth nominal threshold [V]

	Alpha    float64 // alpha-power-law velocity-saturation exponent
	SubSwing float64 // subthreshold swing S [V/decade]
	KRoll    float64 // Vth roll-off dVth/dLeff [V/nm] (longer channel ⇒ higher Vth)

	Tau0Ps    float64 // unit-inverter LVT time constant τ₀ [ps]
	CinUnitFF float64 // unit-inverter input capacitance [fF]

	I0LeakNA   float64 // subthreshold current scale at Vth=0 per unit width factor [nA]
	GateLeakNW float64 // gate-tunneling leakage per unit width factor [nW], Vth-independent

	WireCapPerFanoutFF float64 // lumped wire capacitance per fanout connection [fF]
	POLoadFF           float64 // capacitive load on each primary output [fF]

	DffSetupPs float64 // flip-flop setup time [ps] (capture margin at DFF data pins)

	// TempC is the operating temperature [°C]. The named constants
	// (SubSwing, I0LeakNA, Tau0Ps) are their values at the 25°C
	// reference; NewLibrary derives the effective values:
	//
	//   S(T)  = S_ref · T/T_ref          (subthreshold swing ∝ kT/q)
	//   I0(T) = I0_ref · (T/T_ref)²      (subthreshold prefactor)
	//   τ(T)  = τ_ref · (T/T_ref)^1.5    (mobility degradation; the
	//                                     partially compensating Vth(T)
	//                                     drop is folded into the
	//                                     exponent choice)
	//
	// with T in kelvin. Zero means the 25°C reference.
	TempC float64
}

// referenceTempC is the characterization temperature of the named
// constants.
const referenceTempC = 25.0

// Default100nm returns the 100nm-class parameter set used by all
// experiments. The constants are era-typical: HVT is ~20% slower and
// ~23× less leaky than LVT; a 3σ channel-length excursion multiplies
// LVT leakage ~3×.
func Default100nm() *Params {
	return &Params{
		Name:               "generic-100nm",
		Vdd:                1.2,
		LeffNom:            60,
		VthLow:             0.20,
		VthHigh:            0.33,
		Alpha:              1.3,
		SubSwing:           0.095,
		KRoll:              0.004,
		Tau0Ps:             7.0,
		CinUnitFF:          2.0,
		I0LeakNA:           3000,
		GateLeakNW:         1.5,
		WireCapPerFanoutFF: 0.4,
		POLoadFF:           8.0,
		DffSetupPs:         40,
	}
}

// Validate sanity-checks the parameter set.
func (p *Params) Validate() error {
	switch {
	case p.Vdd <= 0:
		return fmt.Errorf("tech: Vdd %g must be > 0", p.Vdd)
	case p.LeffNom <= 0:
		return fmt.Errorf("tech: LeffNom %g must be > 0", p.LeffNom)
	case p.VthLow <= 0 || p.VthHigh <= p.VthLow:
		return fmt.Errorf("tech: need 0 < VthLow (%g) < VthHigh (%g)", p.VthLow, p.VthHigh)
	case p.VthHigh >= p.Vdd:
		return fmt.Errorf("tech: VthHigh %g must be < Vdd %g", p.VthHigh, p.Vdd)
	case p.Alpha < 1 || p.Alpha > 2:
		return fmt.Errorf("tech: Alpha %g outside [1,2]", p.Alpha)
	case p.SubSwing <= 0:
		return fmt.Errorf("tech: SubSwing %g must be > 0", p.SubSwing)
	case p.KRoll < 0:
		return fmt.Errorf("tech: KRoll %g must be >= 0", p.KRoll)
	case p.Tau0Ps <= 0 || p.CinUnitFF <= 0 || p.I0LeakNA <= 0:
		return fmt.Errorf("tech: Tau0Ps/CinUnitFF/I0LeakNA must be > 0")
	case p.DffSetupPs < 0:
		return fmt.Errorf("tech: DffSetupPs %g must be >= 0", p.DffSetupPs)
	case p.TempC < -40 || p.TempC > 150:
		return fmt.Errorf("tech: TempC %g outside [-40, 150]", p.TempC)
	}
	return nil
}

// tempRatio returns T/T_ref in kelvin.
func (p *Params) tempRatio() float64 {
	t := p.TempC
	if stats.EqZero(t) {
		t = referenceTempC
	}
	return (273.15 + t) / (273.15 + referenceTempC)
}

// Vth returns the nominal threshold of the class.
func (p *Params) Vth(v VthClass) float64 {
	if v == HighVth {
		return p.VthHigh
	}
	return p.VthLow
}

// cellTraits carries the per-gate-type electrical characterization:
// logical effort g, parasitic delay p (in τ units), relative total
// transistor width w (leakage weight), and stack factor sf (leakage
// reduction from series transistor stacks).
type cellTraits struct {
	g, p, w, sf float64
}

var traits = [logic.NumGateTypes]cellTraits{
	logic.Input: {g: 0, p: 0, w: 0, sf: 0},
	logic.Buf:   {g: 1, p: 2.0, w: 1.8, sf: 0.90},
	logic.Inv:   {g: 1, p: 1.0, w: 1.0, sf: 1.00},
	logic.Nand2: {g: 4.0 / 3.0, p: 2.0, w: 2.2, sf: 0.55},
	logic.Nand3: {g: 5.0 / 3.0, p: 3.0, w: 3.6, sf: 0.42},
	logic.Nand4: {g: 2.0, p: 4.0, w: 5.3, sf: 0.35},
	logic.Nor2:  {g: 5.0 / 3.0, p: 2.0, w: 2.6, sf: 0.55},
	logic.Nor3:  {g: 7.0 / 3.0, p: 3.0, w: 4.4, sf: 0.42},
	logic.Nor4:  {g: 3.0, p: 4.0, w: 6.7, sf: 0.35},
	logic.And2:  {g: 1.5, p: 3.0, w: 3.2, sf: 0.70},
	logic.And3:  {g: 1.8, p: 4.0, w: 4.6, sf: 0.60},
	logic.And4:  {g: 2.1, p: 5.0, w: 6.3, sf: 0.50},
	logic.Or2:   {g: 1.8, p: 3.0, w: 3.6, sf: 0.70},
	logic.Or3:   {g: 2.4, p: 4.0, w: 5.4, sf: 0.60},
	logic.Or4:   {g: 3.1, p: 5.0, w: 7.7, sf: 0.50},
	logic.Xor2:  {g: 4.0, p: 4.0, w: 4.5, sf: 0.80},
	logic.Xnor2: {g: 4.0, p: 4.0, w: 4.5, sf: 0.80},
	// Dff: the "delay" of a flip-flop cell is its clock-to-Q; the data
	// pin presents a modest input capacitance; flip-flops are wide
	// (master+slave latches, clock buffers) and leak accordingly.
	logic.Dff: {g: 1.2, p: 3.0, w: 7.0, sf: 0.80},
}

// DefaultSizes is the discrete drive-strength ladder of the library.
// Steps of ~1.25-1.4× keep greedy sizing moves fine-grained enough for
// the sensitivity heuristics (a ×2 ladder makes single moves so
// chunky that upsizing a gate often hurts its drivers more than it
// helps the gate).
var DefaultSizes = []float64{1, 1.25, 1.5, 2, 2.5, 3, 4, 5, 6, 8, 10, 12, 16}

// Library binds a Params to a discrete size ladder and provides the
// per-cell delay, capacitance and leakage models, with the
// temperature-effective constants baked in.
type Library struct {
	P     *Params
	Sizes []float64 // ascending drive strengths

	tauLVT, tauHVT float64 // precomputed τ per class (at temperature)
	leak10         [NumVthClasses]float64
	tau0Eff        float64 // τ₀ at temperature
	subSwingEff    float64 // S at temperature
	i0Eff          float64 // I₀ at temperature

	// Alpha split as math.Pow splits an exponent (see powAlpha):
	// Alpha = alphaFrac + 2 when alphaSquare, else alphaFrac + 1.
	alphaFrac   float64
	alphaSquare bool
}

// NewLibrary builds a library over the default size ladder.
func NewLibrary(p *Params) (*Library, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	lb := &Library{P: p, Sizes: append([]float64(nil), DefaultSizes...)}
	tr := p.tempRatio()
	lb.tau0Eff = p.Tau0Ps * math.Pow(tr, 1.5)
	lb.subSwingEff = p.SubSwing * tr
	lb.i0Eff = p.I0LeakNA * tr * tr
	lb.tauLVT = lb.tau0Eff
	ratio := (p.Vdd - p.VthLow) / (p.Vdd - p.VthHigh)
	lb.tauHVT = lb.tau0Eff * math.Pow(ratio, p.Alpha)
	lb.leak10[LowVth] = math.Pow(10, -p.VthLow/lb.subSwingEff)
	lb.leak10[HighVth] = math.Pow(10, -p.VthHigh/lb.subSwingEff)
	// Validate keeps Alpha in [1,2], so the integer part is 1 or 2.
	ai, af := math.Modf(p.Alpha)
	if af > 0.5 {
		af--
		ai++
	}
	lb.alphaFrac, lb.alphaSquare = af, stats.EqExact(ai, 2)
	return lb, nil
}

// powAlpha returns math.Pow(x, Alpha) bit for bit, for positive x
// whose power is a normal float (DelayWith's Vdd−0.01 clamp bounds x
// by (Vdd−VthLow)/0.01). Pow splits its exponent into an integer part and a
// fraction f ∈ (−0.5, 0.5] as NewLibrary does, computes Exp(f·Log x),
// and multiplies in x^1 or x^2 by squaring Frexp's mantissa. Scaling
// by a power of two does not change how a product rounds, so for
// those two integer parts the result is Exp(f·Log x)·x or
// Exp(f·Log x)·(x·x), computed here without Pow's special cases,
// Modf, Frexp, loop and Ldexp.
func (lb *Library) powAlpha(x float64) float64 {
	a := math.Exp(lb.alphaFrac * math.Log(x))
	if lb.alphaSquare {
		return a * (x * x)
	}
	return a * x
}

// LeakBeta returns the effective β = ln10/S(T): the exponential
// leakage sensitivity to threshold shifts at the library temperature.
func (lb *Library) LeakBeta() float64 { return math.Ln10 / lb.subSwingEff }

// Tau returns the time constant τ(Vth class) [ps].
func (lb *Library) Tau(v VthClass) float64 {
	if v == HighVth {
		return lb.tauHVT
	}
	return lb.tauLVT
}

// SizeIndex returns the index of size s in the ladder, or -1.
func (lb *Library) SizeIndex(s float64) int {
	for i, v := range lb.Sizes {
		// Sizes are assigned by copy from this ladder, never computed,
		// so exact equality is the correct membership test.
		if stats.EqExact(v, s) {
			return i
		}
	}
	return -1
}

// InputCap returns the capacitance of one input pin of a cell [fF].
// It scales with size and logical effort and is independent of the
// Vth flavor (same transistor widths, different channel doping).
func (lb *Library) InputCap(t logic.GateType, size float64) float64 {
	return traits[t].g * size * lb.P.CinUnitFF
}

// Delay returns the nominal propagation delay [ps] of a cell of the
// given type, Vth flavor and size driving loadFF.
//
//	d = τ(v) · (loadFF/(size·Cu) + p(type))
//
// Larger cells drive a given load faster but present more input
// capacitance to their drivers; high-Vth cells are uniformly slower by
// the alpha-power factor.
func (lb *Library) Delay(t logic.GateType, v VthClass, size, loadFF float64) float64 {
	if t == logic.Input {
		return 0
	}
	return lb.Tau(v) * lb.loadTerm(t, size, loadFF)
}

// loadTerm returns the delay factor loadFF/(size·Cu) + p(type) that
// multiplies τ.
func (lb *Library) loadTerm(t logic.GateType, size, loadFF float64) float64 {
	return loadFF/(size*lb.P.CinUnitFF) + traits[t].p
}

// DelayWith returns the exact (nonlinear) delay [ps] under a channel-
// length excursion dLnm [nm] and an independent threshold shift dVthV
// [V]. This is the model Monte Carlo evaluates; DelayDerivs is its
// linearization at (0,0).
func (lb *Library) DelayWith(t logic.GateType, v VthClass, size, loadFF, dLnm, dVthV float64) float64 {
	if t == logic.Input {
		return 0
	}
	return lb.delayAt(lb.P.Vth(v), lb.loadTerm(t, size, loadFF), dLnm, dVthV)
}

// delayAt is DelayWith for a cell of nominal threshold vth and load
// term loadTerm (see loadTerm).
func (lb *Library) delayAt(vth, loadTerm, dLnm, dVthV float64) float64 {
	p := lb.P
	vthEff := vth + p.KRoll*dLnm + dVthV
	if vthEff >= p.Vdd-0.01 {
		vthEff = p.Vdd - 0.01 // clamp: the device barely turns on
	}
	leff := p.LeffNom + dLnm
	if leff < p.LeffNom*0.5 {
		leff = p.LeffNom * 0.5
	}
	tau := lb.tau0Eff * (leff / p.LeffNom) *
		lb.powAlpha((p.Vdd-p.VthLow)/(p.Vdd-vthEff))
	return tau * loadTerm
}

// DelayDerivs returns the first-order sensitivities of Delay to ΔLeff
// [ps/nm] and to an independent ΔVth [ps/V], evaluated at the nominal
// point. SSTA builds its canonical forms from these.
func (lb *Library) DelayDerivs(t logic.GateType, v VthClass, size, loadFF float64) (dPerNm, dPerV float64) {
	if t == logic.Input {
		return 0, 0
	}
	d := lb.Delay(t, v, size, loadFF)
	p := lb.P
	vth := p.Vth(v)
	dPerV = d * p.Alpha / (p.Vdd - vth)
	dPerNm = d*(1/p.LeffNom) + dPerV*p.KRoll
	return dPerNm, dPerV
}

// DelayDerivsWith returns the first-order sensitivities of the biased
// delay to ΔLeff [ps/nm] and ΔVth [ps/V], linearized at (ΔL=0,
// ΔVth=dVthV) instead of the nominal point. Scenario corners with a
// body-bias threshold shift build their SSTA canonical forms from
// these; with dVthV = 0 the expressions reduce to DelayDerivs.
func (lb *Library) DelayDerivsWith(t logic.GateType, v VthClass, size, loadFF, dVthV float64) (dPerNm, dPerV float64) {
	if t == logic.Input {
		return 0, 0
	}
	d := lb.DelayWith(t, v, size, loadFF, 0, dVthV)
	p := lb.P
	vth := p.Vth(v) + dVthV
	if vth >= p.Vdd-0.01 {
		vth = p.Vdd - 0.01 // match DelayWith's barely-turns-on clamp
	}
	dPerV = d * p.Alpha / (p.Vdd - vth)
	dPerNm = d*(1/p.LeffNom) + dPerV*p.KRoll
	return dPerNm, dPerV
}

// Leak returns the nominal leakage power [nW] of a cell: the
// subthreshold component (exponential in Vth) plus the small
// Vth-independent gate-tunneling component.
func (lb *Library) Leak(t logic.GateType, v VthClass, size float64) float64 {
	return lb.SubLeak(t, v, size) + lb.GateLeak(t, size)
}

// SubLeak returns only the subthreshold component [nW] — the part that
// varies lognormally with process.
func (lb *Library) SubLeak(t logic.GateType, v VthClass, size float64) float64 {
	if t == logic.Input {
		return 0
	}
	tr := traits[t]
	// nA × V = nW: a unit LVT inverter lands at ~28 nW (see tests).
	return lb.P.Vdd * lb.i0Eff * tr.w * size * tr.sf * lb.leak10[v]
}

// SubLeakWith returns the subthreshold component [nW] under an
// independent threshold shift dVthV [V] — the body-bias form scenario
// corners evaluate. With dVthV = 0 it reduces to SubLeak exactly.
func (lb *Library) SubLeakWith(t logic.GateType, v VthClass, size, dVthV float64) float64 {
	if t == logic.Input {
		return 0
	}
	return lb.SubLeak(t, v, size) * math.Exp(-lb.LeakBeta()*dVthV)
}

// GateLeak returns the Vth-independent gate-tunneling component [nW].
func (lb *Library) GateLeak(t logic.GateType, size float64) float64 {
	if t == logic.Input {
		return 0
	}
	return lb.P.GateLeakNW * traits[t].w * size
}

// leakAt returns the exact leakage [nW] of a cell of nominal
// subthreshold leakage sub and gate leakage gate under a
// channel-length excursion dLnm and independent threshold shift dVthV
// (gate leakage added unvaried), with β = ln10/S(T):
//
//	P = P_nom · exp(−β·(k_roll·ΔL + ΔVth))
//
// Shorter channels (ΔL < 0) lower the effective threshold and raise
// leakage exponentially — the asymmetry that drives the whole paper.
func (lb *Library) leakAt(sub, gate, beta, dLnm, dVthV float64) float64 {
	dvth := lb.P.KRoll*dLnm + dVthV
	return sub*math.Exp(-beta*dvth) + gate
}

// Cell is a library cell bound to a gate type, Vth class, size and
// load, with every term of DelayWith and of the leakage model that the
// process excursion does not change folded once: the nominal threshold, the
// load term, the nominal subthreshold and gate leakage, and β. Monte
// Carlo binds one Cell per gate per run and evaluates it per die.
type Cell struct {
	lb       *Library
	vth      float64 // nominal threshold [V]
	loadTerm float64 // loadFF/(size·Cu) + p(type)
	sub      float64 // nominal subthreshold leakage [nW]
	gate     float64 // gate-tunneling leakage [nW]
	beta     float64 // ln10/S(T) [1/V]
}

// Cell binds a cell of type t, class v and size driving loadFF. A
// logic.Input pseudo-gate binds with zero load term and leakage, so
// its Delay and Leak are 0, like DelayWith's.
func (lb *Library) Cell(t logic.GateType, v VthClass, size, loadFF float64) Cell {
	c := Cell{lb: lb, vth: lb.P.Vth(v), beta: lb.LeakBeta()}
	if t != logic.Input {
		c.loadTerm = lb.loadTerm(t, size, loadFF)
		c.sub = lb.SubLeak(t, v, size)
		c.gate = lb.GateLeak(t, size)
	}
	return c
}

// Delay returns the cell's exact delay [ps] under a channel-length
// excursion dLnm [nm] and threshold shift dVthV [V]; it equals
// DelayWith at the bound type, class, size and load bit for bit.
func (c *Cell) Delay(dLnm, dVthV float64) float64 {
	return c.lb.delayAt(c.vth, c.loadTerm, dLnm, dVthV)
}

// Leak returns the cell's exact leakage [nW] under the excursion (see
// leakAt).
func (c *Cell) Leak(dLnm, dVthV float64) float64 {
	return c.lb.leakAt(c.sub, c.gate, c.beta, dLnm, dVthV)
}

// LeakExponents returns the coefficients (bL [1/nm], bV [1/V]) of the
// leakage exponent: SubLeak_varied = SubLeak_nom·exp(−bL·ΔL − bV·ΔVth).
// These are Vth-class independent under the roll-off model.
func (lb *Library) LeakExponents() (bL, bV float64) {
	beta := lb.LeakBeta()
	return beta * lb.P.KRoll, beta
}
