package libfile

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/tech"
)

func TestParseOverridesBase(t *testing.T) {
	src := `
# custom process
technology my-90nm
vdd        1.1
leff_nm    55
vth_low    0.19
vth_high   0.31
sizes      1 2 4 8 16
`
	f, err := Parse(strings.NewReader(src), nil)
	if err != nil {
		t.Fatal(err)
	}
	p := f.Params
	if p.Name != "my-90nm" || p.Vdd != 1.1 || p.LeffNom != 55 || p.VthLow != 0.19 || p.VthHigh != 0.31 {
		t.Errorf("override failed: %+v", p)
	}
	// Unset keys keep the base (100nm) values.
	if p.Alpha != tech.Default100nm().Alpha {
		t.Error("unset key did not keep base value")
	}
	if len(f.Sizes) != 5 || f.Sizes[4] != 16 {
		t.Errorf("sizes = %v", f.Sizes)
	}
	lb, err := f.Library()
	if err != nil {
		t.Fatal(err)
	}
	if len(lb.Sizes) != 5 {
		t.Errorf("library did not adopt custom ladder: %v", lb.Sizes)
	}
}

func TestParseWithExplicitBase(t *testing.T) {
	f, err := Parse(strings.NewReader("vdd 1.6\n"), tech.Default130nm())
	if err != nil {
		t.Fatal(err)
	}
	if f.Params.Vdd != 1.6 {
		t.Error("override ignored")
	}
	if f.Params.LeffNom != tech.Default130nm().LeffNom {
		t.Error("base not honored")
	}
	// Base must not be mutated.
	if tech.Default130nm().Vdd == 1.6 {
		t.Error("base mutated")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"unknown key", "frobnicate 3\n"},
		{"bad value", "vdd lots\n"},
		{"two values", "vdd 1.0 2.0\n"},
		{"bad size", "sizes 1 -2\n"},
		{"unsorted sizes", "sizes 4 2 8\n"},
		{"empty sizes", "sizes\n"},
		{"technology two names", "technology a b\n"},
		{"invalid physics", "vth_high 0.1\n"}, // below vth_low ⇒ Validate fails
	}
	for _, tc := range cases {
		if _, err := Parse(strings.NewReader(tc.src), nil); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestParseRoundTrip: a file spelling out every key of the 70nm preset
// parses, over the 100nm base, back to that preset exactly, so each
// key writes the field it names.
func TestParseRoundTrip(t *testing.T) {
	want := tech.Default70nm()
	values := map[string]float64{
		"vdd": want.Vdd, "leff_nm": want.LeffNom, "vth_low": want.VthLow, "vth_high": want.VthHigh,
		"alpha": want.Alpha, "subswing": want.SubSwing, "kroll": want.KRoll, "tau0_ps": want.Tau0Ps,
		"cin_unit_ff": want.CinUnitFF, "i0_leak_na": want.I0LeakNA, "gate_leak_nw": want.GateLeakNW,
		"wire_cap_ff": want.WireCapPerFanoutFF, "po_load_ff": want.POLoadFF,
		"dff_setup_ps": want.DffSetupPs, "temp_c": want.TempC,
	}
	if len(values) != len(fields) {
		t.Fatalf("test spells out %d keys, the parser knows %d", len(values), len(fields))
	}
	var src strings.Builder
	fmt.Fprintf(&src, "technology %s\nsizes 1 3 9\n", want.Name)
	for key, v := range values {
		fmt.Fprintf(&src, "%s %g\n", key, v)
	}
	back, err := Parse(strings.NewReader(src.String()), nil)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src.String())
	}
	if *back.Params != *want {
		t.Errorf("params changed:\n got %+v\nwant %+v", back.Params, want)
	}
	if len(back.Sizes) != 3 || back.Sizes[1] != 3 {
		t.Errorf("sizes changed: %v", back.Sizes)
	}
}

func TestPresets(t *testing.T) {
	for _, name := range tech.PresetNames() {
		p, err := tech.Preset(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("%s: invalid: %v", name, err)
		}
		if _, err := tech.NewLibrary(p); err != nil {
			t.Errorf("%s: NewLibrary: %v", name, err)
		}
	}
	if _, err := tech.Preset("42nm"); err == nil {
		t.Error("unknown preset accepted")
	}
	// Scaling sanity: leakage scale grows as nodes shrink; supply falls.
	p130, _ := tech.Preset("130nm")
	p100, _ := tech.Preset("100nm")
	p70, _ := tech.Preset("70nm")
	if !(p130.I0LeakNA < p100.I0LeakNA && p100.I0LeakNA < p70.I0LeakNA) {
		t.Error("leakage scale not increasing across nodes")
	}
	if !(p130.Vdd > p100.Vdd && p100.Vdd > p70.Vdd) {
		t.Error("supply not decreasing across nodes")
	}
}
