package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/tech"
)

// TestCornerView pins the corner-view contract: the view aliases the
// base assignment arrays (a write through either side is visible to
// both), swaps the library, carries the bias vector, and rejects
// malformed inputs.
func TestCornerView(t *testing.T) {
	d := c17(t)
	n := d.Circuit.NumNodes()

	p, err := tech.Preset("100nm")
	if err != nil {
		t.Fatal(err)
	}
	p.TempC = 110
	hot, err := tech.NewLibrary(p)
	if err != nil {
		t.Fatal(err)
	}

	bias := make([]float64, n)
	for i := range bias {
		bias[i] = 0.02
	}
	v, err := d.CornerView(hot, bias)
	if err != nil {
		t.Fatal(err)
	}
	if v.Lib != hot {
		t.Fatal("view did not swap the library")
	}
	if v.Circuit != d.Circuit || v.Var != d.Var {
		t.Fatal("view must share circuit and variation model")
	}

	// The assignment arrays are aliased, not copied: a move applied to
	// the base is immediately visible through the view and vice versa.
	id := -1
	for _, g := range d.Circuit.Gates() {
		if g.Type.Arity() > 0 {
			id = g.ID
			break
		}
	}
	if id < 0 {
		t.Fatal("no logic gate")
	}
	want := tech.HighVth
	if d.Vth[id] == tech.HighVth {
		want = tech.LowVth
	}
	if err := d.SetVth(id, want); err != nil {
		t.Fatal(err)
	}
	if v.Vth[id] != want {
		t.Fatal("view does not alias the Vth assignment")
	}
	if err := v.SetVth(id, tech.HighVth); err != nil {
		t.Fatal(err)
	}
	if d.Vth[id] != tech.HighVth {
		t.Fatal("base does not see writes through the view")
	}

	// Reverse bias raises Vth: the biased view must be slower and
	// leak less than an unbiased view over the same library.
	unbiased, err := d.CornerView(hot, nil)
	if err != nil {
		t.Fatal(err)
	}
	if unbiased.BiasVth != nil {
		t.Fatal("nil bias must stay nil on the view")
	}
	if gd, ud := v.GateDelay(id), unbiased.GateDelay(id); gd <= ud {
		t.Errorf("reverse-biased delay %g must exceed unbiased %g", gd, ud)
	}
	if gl, ul := v.GateLeak(id), unbiased.GateLeak(id); gl >= ul {
		t.Errorf("reverse-biased leak %g must undercut unbiased %g", gl, ul)
	}
	if bt, ut := v.TotalLeak(), unbiased.TotalLeak(); bt >= ut {
		t.Errorf("reverse-biased total leak %g must undercut unbiased %g", bt, ut)
	}

	// A nil library falls back to the base's.
	same, err := d.CornerView(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if same.Lib != d.Lib {
		t.Fatal("nil library must reuse the base library")
	}

	// Validation: bias vector length and ladder compatibility.
	if _, err := d.CornerView(hot, make([]float64, n+1)); err == nil {
		t.Fatal("wrong-length bias vector must error")
	}
	short := *hot
	short.Sizes = hot.Sizes[:1]
	if _, err := d.CornerView(&short, nil); err == nil {
		t.Fatal("mismatched size ladder must error")
	}
}

// TestGateAsMatchesAssignment checks the read-only what-if evaluation:
// GateLeakAs at a target (Vth, size) returns bitwise what GateSubLeak
// and GateGateLeak return once the gate is set to it, on the plain
// design and on a body-biased corner view, and leaves the assignment
// untouched.
func TestGateAsMatchesAssignment(t *testing.T) {
	d := c17(t)
	bias := make([]float64, d.Circuit.NumNodes())
	for i := range bias {
		bias[i] = 0.03
	}
	biased, err := d.CornerView(nil, bias)
	if err != nil {
		t.Fatal(err)
	}
	for _, view := range []*core.Design{d, biased} {
		for _, g := range view.Circuit.Gates() {
			if g.Type.Arity() == 0 {
				continue
			}
			id := g.ID
			for _, v := range []tech.VthClass{tech.LowVth, tech.HighVth} {
				for _, s := range view.Lib.Sizes {
					vth0, size0 := view.Vth[id], view.Size[id]
					sub, gate := view.GateLeakAs(id, v, s)
					if view.Vth[id] != vth0 || view.Size[id] != size0 {
						t.Fatalf("GateLeakAs changed gate %d's assignment", id)
					}
					view.Vth[id], view.Size[id] = v, s
					if sub != view.GateSubLeak(id) || gate != view.GateGateLeak(id) {
						t.Fatalf("gate %d at (%v, %g): GateLeakAs (%v, %v) differs from the assigned gate",
							id, v, s, sub, gate)
					}
					view.Vth[id], view.Size[id] = vth0, size0
				}
			}
		}
	}
}
