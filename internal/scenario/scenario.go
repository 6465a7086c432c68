// Package scenario describes the operating scenarios the evaluation
// family indexes over: the cartesian product of voltage/temperature
// corners, one per-domain body-bias assignment shared by every corner,
// and how the per-corner leakage objectives aggregate. A Spec is pure
// description — what the daemon's job requests and the CLI flags carry
// — and Resolve lowers it against a concrete technology library and
// circuit into one (library, bias vector) pair per corner, which
// engine.NewFamily turns into per-corner evaluation contexts over one
// shared assignment.
//
// Corner naming follows the PyOPUS generateCorners convention: the
// voltage axis uses vl/vn/vh (low/nominal/high supply), the
// temperature axis t<degrees>, and the name of a product corner joins
// the segments with underscores (e.g. "vl_t110").
//
// Body bias is modeled GenMap-style: gates are clustered into a small
// number of well-island domains (here: contiguous topological-depth
// bands, the netlist-level analogue of placement islands), and each
// domain is assigned one reverse-bias value.
package scenario

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/logic"
	"repro/internal/stats"
	"repro/internal/tech"
)

// voltScales maps the PyOPUS-style voltage corner names onto supply
// scalings.
var voltScales = map[string]float64{"vl": 0.9, "vn": 1.0, "vh": 1.1}

// Spec is the wire- and flag-level description of a scenario family:
// what the daemon's job requests and the CLI flags carry. A nil Spec
// is the single nominal corner.
type Spec struct {
	// Temps lists operating temperatures [°C]; empty means the library
	// reference point.
	Temps []float64 `json:"temps,omitempty"`
	// Corners lists voltage corner names (vl, vn, vh); empty means vn.
	Corners []string `json:"corners,omitempty"`
	// BiasDomains is the number of body-bias well islands (0 = no bias
	// axis).
	BiasDomains int `json:"bias_domains,omitempty"`
	// Bias lists the per-domain reverse-bias values [V]; a single value
	// broadcasts to every domain. Requires BiasDomains > 0.
	Bias []float64 `json:"bias,omitempty"`
	// GammaBB is the body-effect coefficient (0 = 0.1).
	GammaBB float64 `json:"gamma_bb,omitempty"`
	// Aggregate is "worst" (default) or "weighted".
	Aggregate string `json:"aggregate,omitempty"`
}

// IsZero reports whether the spec requests anything beyond the
// implicit single nominal corner.
func (s *Spec) IsZero() bool {
	return s == nil || (len(s.Temps) == 0 && len(s.Corners) == 0 &&
		s.BiasDomains == 0 && len(s.Bias) == 0 && s.Aggregate == "")
}

// Weighted reports whether per-corner leakage objectives collapse to
// their mean over corners (the duty-cycle-style objective) rather than
// to the worst corner, the conservative default.
func (s *Spec) Weighted() bool {
	return s != nil && strings.EqualFold(strings.TrimSpace(s.Aggregate), "weighted")
}

// Aggregation names the aggregation mode: "worst" or "weighted".
func (s *Spec) Aggregation() string {
	if s.Weighted() {
		return "weighted"
	}
	return "worst"
}

// Validate checks the spec; it needs neither the circuit nor the
// library.
func (s *Spec) Validate() error {
	_, err := s.product()
	return err
}

// corner is one point of a spec's voltage × temperature product.
type corner struct {
	name     string
	tempC    float64 // 0 = the base library's temperature
	vddScale float64
}

// product validates the spec and lists its voltage × temperature
// corners, voltages outermost, named "<volt>_t<temp>" PyOPUS-style.
// Empty temperatures mean the base reference (segment "tn"), empty
// voltages "vn".
func (s *Spec) product() ([]corner, error) {
	if s == nil {
		return nil, nil
	}
	switch strings.ToLower(strings.TrimSpace(s.Aggregate)) {
	case "", "worst", "worst-corner", "weighted":
	default:
		return nil, fmt.Errorf("scenario: unknown aggregation %q (want worst or weighted)", s.Aggregate)
	}
	if len(s.Bias) > 0 && s.BiasDomains <= 0 {
		return nil, fmt.Errorf("scenario: bias values given but bias_domains is 0")
	}
	if len(s.Bias) > 1 && len(s.Bias) != s.BiasDomains {
		return nil, fmt.Errorf("scenario: %d bias values for %d domains", len(s.Bias), s.BiasDomains)
	}
	if s.GammaBB < 0 || s.GammaBB > 1 {
		return nil, fmt.Errorf("scenario: GammaBB %g outside [0,1]", s.GammaBB)
	}
	for i, b := range s.Bias {
		if math.Abs(b) > 1 {
			return nil, fmt.Errorf("scenario: bias value %d = %gV outside [-1,1]", i, b)
		}
	}
	temps := s.Temps
	if len(temps) == 0 {
		temps = []float64{0}
	}
	volts := s.Corners
	if len(volts) == 0 {
		volts = []string{"vn"}
	}
	out := make([]corner, 0, len(volts)*len(temps))
	seen := make(map[string]bool, cap(out))
	for _, v := range volts {
		volt := strings.ToLower(strings.TrimSpace(v))
		scale, ok := voltScales[volt]
		if !ok {
			return nil, fmt.Errorf("scenario: unknown voltage corner %q (want one of vl, vn, vh)", v)
		}
		for _, t := range temps {
			seg := "tn"
			if !stats.EqZero(t) {
				seg = "t" + strconv.FormatFloat(t, 'g', -1, 64)
			}
			c := corner{name: volt + "_" + seg, tempC: t, vddScale: scale}
			if seen[c.name] {
				return nil, fmt.Errorf("scenario: duplicate corner name %q", c.name)
			}
			seen[c.name] = true
			if !stats.EqZero(t) && (t < -40 || t > 150) {
				return nil, fmt.Errorf("scenario: corner %q TempC %g outside [-40,150]", c.name, t)
			}
			out = append(out, c)
		}
	}
	return out, nil
}

// Resolved is one corner lowered against a base library and circuit:
// everything engine.NewFamily needs to build that corner's context.
type Resolved struct {
	Name string
	Lib  *tech.Library
	// BiasVth is the per-node threshold shift [V]; nil when unbiased.
	// Every corner of a spec shares one vector.
	BiasVth []float64
	// Nominal marks a corner that is exactly the base operating point
	// (base library, no bias): the family may evaluate the base design
	// directly instead of a corner view.
	Nominal bool
}

// Resolve lowers the spec against a base library and circuit, one
// corner per voltage × temperature pair in product order. A nil spec
// resolves to the single corner "nom" at the base operating point.
// Corners at the base operating point reuse the base library, so they
// evaluate on the identical model constants.
func (s *Spec) Resolve(base *tech.Library, c *logic.Circuit) ([]Resolved, error) {
	if s == nil {
		return []Resolved{{Name: "nom", Lib: base, Nominal: true}}, nil
	}
	corners, err := s.product()
	if err != nil {
		return nil, err
	}
	bias, err := s.biasVth(c)
	if err != nil {
		return nil, err
	}
	out := make([]Resolved, 0, len(corners))
	for _, cr := range corners {
		r := Resolved{Name: cr.name, Lib: base, BiasVth: bias}
		tempNominal := stats.EqZero(cr.tempC) || stats.EqExact(cr.tempC, base.P.TempC)
		vddNominal := stats.EqExact(cr.vddScale, 1)
		if !tempNominal || !vddNominal {
			p := *base.P
			if !tempNominal {
				p.TempC = cr.tempC
			}
			if !vddNominal {
				p.Vdd = base.P.Vdd * cr.vddScale
			}
			lib, err := tech.NewLibrary(&p)
			if err != nil {
				return nil, fmt.Errorf("scenario: corner %q: %w", r.Name, err)
			}
			// Preserve a non-default base ladder: assignments index
			// into the base ladder by value.
			lib.Sizes = append([]float64(nil), base.Sizes...)
			r.Lib = lib
		}
		r.Nominal = r.Lib == base && r.BiasVth == nil
		out = append(out, r)
	}
	return out, nil
}

// biasVth returns the per-node threshold shift [V] the spec's body
// bias applies at every corner: γ × the bias value of the node's
// domain. It is nil without a bias axis and when every shift is zero.
func (s *Spec) biasVth(c *logic.Circuit) ([]float64, error) {
	if s.BiasDomains <= 0 {
		return nil, nil
	}
	domainOf, err := DomainBands(c, s.BiasDomains)
	if err != nil {
		return nil, err
	}
	gamma := s.GammaBB
	if stats.EqZero(gamma) {
		gamma = 0.1
	}
	bias := make([]float64, c.NumNodes())
	allZero := true
	for id := range bias {
		v := 0.0 // no values: unbiased
		switch {
		case len(s.Bias) == 1:
			v = s.Bias[0] // one value broadcasts to every domain
		case len(s.Bias) > 1:
			v = s.Bias[domainOf[id]]
		}
		bias[id] = gamma * v
		if !stats.EqZero(bias[id]) {
			allZero = false
		}
	}
	if allZero {
		return nil, nil
	}
	return bias, nil
}

// DomainBands partitions the circuit's nodes into `domains` contiguous
// topological-depth bands and returns the domain index per node — the
// GenMap-style clustering of gates into body-bias well islands,
// computed at the netlist level where placement is unavailable. Launch
// points (inputs, DFFs) sit at depth 0 and land in domain 0.
func DomainBands(c *logic.Circuit, domains int) ([]int, error) {
	if domains <= 0 {
		return nil, fmt.Errorf("scenario: domains %d must be >= 1", domains)
	}
	lv, err := c.Levels()
	if err != nil {
		return nil, err
	}
	depth := 0
	for _, l := range lv {
		if l > depth {
			depth = l
		}
	}
	out := make([]int, len(lv))
	for id, l := range lv {
		dom := l * domains / (depth + 1)
		if dom >= domains {
			dom = domains - 1
		}
		out[id] = dom
	}
	return out, nil
}

// ParseFlags builds a Spec from the CLI flag forms: comma-separated
// voltage corner names, comma-separated temperatures, a domain count
// and comma-separated per-domain bias volts. Empty strings mean the
// axis is not swept.
func ParseFlags(corners, temps string, biasDomains int, bias, aggregate string) (*Spec, error) {
	s := &Spec{BiasDomains: biasDomains, Aggregate: aggregate}
	for _, tok := range splitCSV(corners) {
		s.Corners = append(s.Corners, tok)
	}
	for _, tok := range splitCSV(temps) {
		v, err := strconv.ParseFloat(tok, 64)
		if err != nil {
			return nil, fmt.Errorf("scenario: bad temperature %q: %w", tok, err)
		}
		s.Temps = append(s.Temps, v)
	}
	for _, tok := range splitCSV(bias) {
		v, err := strconv.ParseFloat(tok, 64)
		if err != nil {
			return nil, fmt.Errorf("scenario: bad bias value %q: %w", tok, err)
		}
		s.Bias = append(s.Bias, v)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

func splitCSV(s string) []string {
	var out []string
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		if tok != "" {
			out = append(out, tok)
		}
	}
	return out
}
