// Package libfile reads technology parameter files — a
// deliberately tiny, line-oriented stand-in for the Liberty (.lib)
// characterization data the paper's flow would consume. A file
// overrides fields of a base parameter set (by default the built-in
// 100nm preset), so users can describe their own process without
// recompiling:
//
//	# my process
//	technology my-90nm
//	vdd          1.1
//	leff_nm      55
//	vth_low      0.19
//	vth_high     0.31
//	sizes        1 2 4 8 16
//
// Keys mirror tech.Params; unknown keys are errors (typos must not
// silently produce a different process).
package libfile

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/tech"
)

// fields binds each key to the float64 slot of tech.Params it sets.
var fields = map[string]func(*tech.Params, float64){
	"vdd":          func(p *tech.Params, v float64) { p.Vdd = v },
	"leff_nm":      func(p *tech.Params, v float64) { p.LeffNom = v },
	"vth_low":      func(p *tech.Params, v float64) { p.VthLow = v },
	"vth_high":     func(p *tech.Params, v float64) { p.VthHigh = v },
	"alpha":        func(p *tech.Params, v float64) { p.Alpha = v },
	"subswing":     func(p *tech.Params, v float64) { p.SubSwing = v },
	"kroll":        func(p *tech.Params, v float64) { p.KRoll = v },
	"tau0_ps":      func(p *tech.Params, v float64) { p.Tau0Ps = v },
	"cin_unit_ff":  func(p *tech.Params, v float64) { p.CinUnitFF = v },
	"i0_leak_na":   func(p *tech.Params, v float64) { p.I0LeakNA = v },
	"gate_leak_nw": func(p *tech.Params, v float64) { p.GateLeakNW = v },
	"wire_cap_ff":  func(p *tech.Params, v float64) { p.WireCapPerFanoutFF = v },
	"po_load_ff":   func(p *tech.Params, v float64) { p.POLoadFF = v },
	"dff_setup_ps": func(p *tech.Params, v float64) { p.DffSetupPs = v },
	"temp_c":       func(p *tech.Params, v float64) { p.TempC = v },
}

// File is the parsed content of a technology file.
type File struct {
	Params *tech.Params
	Sizes  []float64 // nil ⇒ library default ladder
}

// Parse reads a technology file, applying it over the given base
// parameter set (nil ⇒ the built-in 100nm preset). The returned
// Params are validated.
func Parse(r io.Reader, base *tech.Params) (*File, error) {
	p := tech.Default100nm()
	if base != nil {
		cp := *base
		p = &cp
	}
	f := &File{Params: p}
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Fields(line)
		key := strings.ToLower(parts[0])
		args := parts[1:]
		switch key {
		case "technology":
			if len(args) != 1 {
				return nil, fmt.Errorf("libfile: line %d: technology takes one name", lineNo)
			}
			p.Name = args[0]
		case "sizes":
			if len(args) == 0 {
				return nil, fmt.Errorf("libfile: line %d: sizes needs at least one value", lineNo)
			}
			sizes := make([]float64, 0, len(args))
			for _, a := range args {
				v, err := strconv.ParseFloat(a, 64)
				if err != nil || v <= 0 {
					return nil, fmt.Errorf("libfile: line %d: bad size %q", lineNo, a)
				}
				sizes = append(sizes, v)
			}
			if !sort.Float64sAreSorted(sizes) {
				return nil, fmt.Errorf("libfile: line %d: sizes must be ascending", lineNo)
			}
			f.Sizes = sizes
		default:
			set, ok := fields[key]
			if !ok {
				return nil, fmt.Errorf("libfile: line %d: unknown key %q", lineNo, key)
			}
			if len(args) != 1 {
				return nil, fmt.Errorf("libfile: line %d: %s takes one value", lineNo, key)
			}
			v, err := strconv.ParseFloat(args[0], 64)
			if err != nil {
				return nil, fmt.Errorf("libfile: line %d: bad value %q for %s", lineNo, args[0], key)
			}
			set(p, v)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("libfile: read: %v", err)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("libfile: %v", err)
	}
	return f, nil
}

// Library builds a tech.Library from the parsed file, applying a
// custom size ladder when one was given.
func (f *File) Library() (*tech.Library, error) {
	lb, err := tech.NewLibrary(f.Params)
	if err != nil {
		return nil, err
	}
	if f.Sizes != nil {
		lb.Sizes = append([]float64(nil), f.Sizes...)
	}
	return lb, nil
}
