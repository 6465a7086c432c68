package scenario_test

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fixture"
	"repro/internal/scenario"
)

func TestScenarioNominal(t *testing.T) {
	var nilSpec *scenario.Spec
	if !nilSpec.IsZero() || nilSpec.Weighted() {
		t.Fatal("nil spec must be zero and worst-corner")
	}
	if err := nilSpec.Validate(); err != nil {
		t.Fatalf("nil spec invalid: %v", err)
	}

	d, err := fixture.Suite("s432")
	if err != nil {
		t.Fatal(err)
	}
	rs, err := nilSpec.Resolve(d.Lib, d.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || rs[0].Name != "nom" {
		t.Fatalf("nil spec resolved to %+v, want the one corner \"nom\"", rs)
	}
	if !rs[0].Nominal || rs[0].Lib != d.Lib || rs[0].BiasVth != nil {
		t.Fatalf("nominal corner must reuse the base library unbiased: %+v", rs[0])
	}
}

func TestScenarioValidate(t *testing.T) {
	cases := []struct {
		name string
		s    scenario.Spec
		want string // substring of the error; "" = valid
	}{
		{"empty", scenario.Spec{}, ""},
		{"valid", scenario.Spec{
			Temps: []float64{0, 110}, Corners: []string{"vl", "vh"},
			BiasDomains: 2, Bias: []float64{0.1, 0.2}, GammaBB: 0.2, Aggregate: "weighted",
		}, ""},
		{"dup names", scenario.Spec{Temps: []float64{110, 110}}, "duplicate"},
		{"temp range", scenario.Spec{Temps: []float64{200}}, "TempC"},
		// The supply axis takes only the vl/vn/vh scalings.
		{"vdd range", scenario.Spec{Corners: []string{"vn", "vx"}}, "unknown voltage corner"},
		{"gamma range", scenario.Spec{GammaBB: 2}, "GammaBB"},
		{"bias range", scenario.Spec{BiasDomains: 1, Bias: []float64{2}}, "outside [-1,1]"},
		{"bias without domains", scenario.Spec{Bias: []float64{0.1}}, "bias_domains"},
		{"bias len", scenario.Spec{BiasDomains: 2, Bias: []float64{0.1, 0.2, 0.3}}, "3 bias values for 2 domains"},
		{"aggregation", scenario.Spec{Aggregate: "median"}, "unknown aggregation"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.s.Validate()
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("unexpected error: %v", err)
			case tc.want != "" && err == nil:
				t.Fatalf("want error containing %q, got nil", tc.want)
			case tc.want != "" && !strings.Contains(err.Error(), tc.want):
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestScenarioProduct(t *testing.T) {
	d, err := fixture.Suite("s432")
	if err != nil {
		t.Fatal(err)
	}
	rs, err := (&scenario.Spec{Temps: []float64{0, 110}, Corners: []string{"vl", "vh"}}).Resolve(d.Lib, d.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	wantNames := []string{"vl_tn", "vl_t110", "vh_tn", "vh_t110"}
	if len(rs) != len(wantNames) {
		t.Fatalf("got %d corners, want %d", len(rs), len(wantNames))
	}
	for i, r := range rs {
		if r.Name != wantNames[i] {
			t.Errorf("corner %d named %q, want %q", i, r.Name, wantNames[i])
		}
	}
	if rs[0].Lib.P.Vdd != 0.9*d.Lib.P.Vdd || rs[2].Lib.P.Vdd != 1.1*d.Lib.P.Vdd {
		t.Errorf("voltage scales: vl=%g vh=%g of %g", rs[0].Lib.P.Vdd, rs[2].Lib.P.Vdd, d.Lib.P.Vdd)
	}

	// Empty axes collapse to the single nominal segment.
	rs, err = (&scenario.Spec{}).Resolve(d.Lib, d.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || rs[0].Name != "vn_tn" || !rs[0].Nominal {
		t.Fatalf("empty axes: %+v", rs)
	}

	if _, err := (&scenario.Spec{Corners: []string{"vx"}}).Resolve(d.Lib, d.Circuit); err == nil {
		t.Fatal("unknown voltage corner must error")
	}
}

func TestScenarioDomainBands(t *testing.T) {
	d, err := fixture.Suite("s432")
	if err != nil {
		t.Fatal(err)
	}
	const domains = 4
	dom, err := scenario.DomainBands(d.Circuit, domains)
	if err != nil {
		t.Fatal(err)
	}
	if len(dom) != d.Circuit.NumNodes() {
		t.Fatalf("got %d assignments for %d nodes", len(dom), d.Circuit.NumNodes())
	}
	lv, err := d.Circuit.Levels()
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]bool, domains)
	for id, b := range dom {
		if b < 0 || b >= domains {
			t.Fatalf("node %d assigned domain %d outside [0,%d)", id, b, domains)
		}
		seen[b] = true
		if lv[id] == 0 && b != 0 {
			t.Fatalf("launch node %d (depth 0) in domain %d, want 0", id, b)
		}
	}
	for b, ok := range seen {
		if !ok {
			t.Errorf("domain %d is empty", b)
		}
	}
	// Band assignment must be monotone in topological depth.
	for id, b := range dom {
		for id2, b2 := range dom {
			if lv[id] < lv[id2] && b > b2 {
				t.Fatalf("non-monotone bands: depth %d → domain %d but depth %d → domain %d",
					lv[id], b, lv[id2], b2)
			}
		}
	}

	if _, err := scenario.DomainBands(d.Circuit, 0); err == nil {
		t.Fatal("domains=0 must error")
	}
}

// resolve lowers s against the design's library and circuit.
func resolve(t *testing.T, d *core.Design, s *scenario.Spec) []scenario.Resolved {
	t.Helper()
	rs, err := s.Resolve(d.Lib, d.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// TestScenarioSpecBuild checks the bias vector Resolve builds from a
// spec's per-domain values, and that Resolve refuses the malformed
// specs instead of lowering them.
func TestScenarioSpecBuild(t *testing.T) {
	d, err := fixture.Suite("s432")
	if err != nil {
		t.Fatal(err)
	}

	// Every corner carries one shared per-node threshold shift of
	// gamma × the node's domain value; a single value broadcasts over
	// the domains.
	rs := resolve(t, d, &scenario.Spec{Corners: []string{"vn", "vh"}, BiasDomains: 3, Bias: []float64{0.2}})
	if rs[0].BiasVth == nil || len(rs[0].BiasVth) != d.Circuit.NumNodes() || rs[0].Nominal {
		t.Fatalf("biased corner has no bias vector: %+v", rs[0])
	}
	if &rs[0].BiasVth[0] != &rs[1].BiasVth[0] {
		t.Fatal("corners of one spec must share the bias vector")
	}
	gamma, v := 0.1, 0.2 // the default GammaBB, the broadcast value
	for id, b := range rs[0].BiasVth {
		if b != gamma*v {
			t.Fatalf("node %d bias %g, want %g", id, b, gamma*v)
		}
	}

	// Distinct per-domain values follow the depth bands; GammaBB scales
	// them.
	vals := []float64{0.2, 0, -0.1}
	dom, err := scenario.DomainBands(d.Circuit, len(vals))
	if err != nil {
		t.Fatal(err)
	}
	rs = resolve(t, d, &scenario.Spec{BiasDomains: len(vals), Bias: vals, GammaBB: 0.15})
	for id, b := range rs[0].BiasVth {
		if want := 0.15 * vals[dom[id]]; b != want {
			t.Fatalf("node %d (domain %d) bias %g, want %g", id, dom[id], b, want)
		}
	}

	for _, tc := range []struct {
		s    scenario.Spec
		want string
	}{
		{scenario.Spec{Bias: []float64{0.1}}, "bias values without bias_domains"},
		{scenario.Spec{BiasDomains: 2, Bias: []float64{0.1, 0.2, 0.3}}, "bias/domain count mismatch"},
		{scenario.Spec{Aggregate: "median"}, "unknown aggregation"},
	} {
		if _, err := tc.s.Resolve(d.Lib, d.Circuit); err == nil {
			t.Errorf("%s must error", tc.want)
		}
	}
}

func TestScenarioResolve(t *testing.T) {
	d, err := fixture.Suite("s432")
	if err != nil {
		t.Fatal(err)
	}

	// Temperature-only sweep: the reference corner reuses the base
	// library, the hot corner gets a derived one.
	rs := resolve(t, d, &scenario.Spec{Temps: []float64{0, 110}})
	if len(rs) != 2 {
		t.Fatalf("resolved %d corners, want 2", len(rs))
	}
	if !rs[0].Nominal || rs[0].Lib != d.Lib {
		t.Fatalf("reference corner must reuse the base library: %+v", rs[0])
	}
	if rs[1].Nominal || rs[1].Lib == d.Lib || rs[1].Lib.P.TempC != 110 {
		t.Fatalf("hot corner: nominal=%v TempC=%g", rs[1].Nominal, rs[1].Lib.P.TempC)
	}
	if rs[1].Lib.P.Vdd != d.Lib.P.Vdd {
		t.Fatalf("temperature corner changed Vdd: %g vs %g", rs[1].Lib.P.Vdd, d.Lib.P.Vdd)
	}

	// Voltage corner scales the supply.
	rs = resolve(t, d, &scenario.Spec{Corners: []string{"vh"}})
	if want := d.Lib.P.Vdd * 1.1; math.Abs(rs[0].Lib.P.Vdd-want) > 1e-12 {
		t.Fatalf("vh corner Vdd = %g, want %g", rs[0].Lib.P.Vdd, want)
	}

	// An all-zero bias collapses to unbiased, as do domains without
	// values.
	for _, s := range []*scenario.Spec{
		{BiasDomains: 2, Bias: []float64{0, 0}},
		{BiasDomains: 2},
	} {
		rs = resolve(t, d, s)
		if rs[0].BiasVth != nil || !rs[0].Nominal {
			t.Fatalf("%+v must resolve unbiased nominal: %+v", *s, rs[0])
		}
	}
}

func TestScenarioParseFlags(t *testing.T) {
	s, err := scenario.ParseFlags("vl, vh", "0,110", 0, "", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Corners) != 2 || len(s.Temps) != 2 || s.Temps[1] != 110 {
		t.Fatalf("parsed spec = %+v", s)
	}
	if s.IsZero() {
		t.Fatal("populated spec must not be zero")
	}

	s, err = scenario.ParseFlags("", "", 2, "0.1,0.2", "weighted")
	if err != nil {
		t.Fatal(err)
	}
	if s.BiasDomains != 2 || len(s.Bias) != 2 || s.Aggregate != "weighted" {
		t.Fatalf("parsed bias spec = %+v", s)
	}

	if _, err := scenario.ParseFlags("", "hot", 0, "", ""); err == nil {
		t.Fatal("bad temperature must error")
	}
	if _, err := scenario.ParseFlags("", "", 2, "x", ""); err == nil {
		t.Fatal("bad bias value must error")
	}
	if _, err := scenario.ParseFlags("vx", "", 0, "", ""); err == nil {
		t.Fatal("unknown voltage corner must error")
	}
}

func TestScenarioParseAgg(t *testing.T) {
	for _, tc := range []struct {
		in       string
		weighted bool
	}{
		{"", false},
		{"worst", false},
		{"worst-corner", false},
		{"Weighted", true},
		{" weighted ", true},
	} {
		s := &scenario.Spec{Aggregate: tc.in}
		if err := s.Validate(); err != nil {
			t.Errorf("aggregation %q: %v", tc.in, err)
		}
		want := "worst"
		if tc.weighted {
			want = "weighted"
		}
		if s.Weighted() != tc.weighted || s.Aggregation() != want {
			t.Errorf("aggregation %q: Weighted %v, Aggregation %q", tc.in, s.Weighted(), s.Aggregation())
		}
	}
	if err := (&scenario.Spec{Aggregate: "median"}).Validate(); err == nil {
		t.Error("unknown aggregation must error")
	}
}
