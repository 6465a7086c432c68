package main

import (
	"sort"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/leakage"
	"repro/internal/logic"
	"repro/internal/ssta"
	"repro/internal/sta"
	"repro/internal/tech"
	"repro/internal/verilog"
)

// probeTarget is one of a workload's designs: the circuit, its design
// as the workload holds it, and its delay constraint.
type probeTarget struct {
	name string
	c    *logic.Circuit
	d    *core.Design
	tmax float64
}

// probeBatches is how many timed batches each probe runs; it reports
// the median batch's mean per call.
const probeBatches = 5

// timeCalls times probeBatches batches of n calls of f and returns the
// median seconds per call.
func timeCalls(n int, f func() error) (float64, error) {
	per := make([]float64, probeBatches)
	for b := range per {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := f(); err != nil {
				return 0, err
			}
		}
		per[b] = time.Since(t0).Seconds() / float64(n)
	}
	sort.Float64s(per)
	return per[len(per)/2], nil
}

// flipVth returns a swap of gate id to the other threshold class.
func flipVth(d *core.Design, id int) (engine.VthSwap, error) {
	to := tech.HighVth
	if d.Vth[id] == tech.HighVth {
		to = tech.LowVth
	}
	return engine.NewVthSwap(d, id, to)
}

// probeLadder times direct calls into each layer, one rung per layer,
// on each target, and returns the mean over targets per metric. It
// works on clones, so the targets are left as they were.
func probeLadder(targets []probeTarget) (map[string]float64, error) {
	sum := make(map[string]float64)
	for _, t := range targets {
		cfg, err := bench.SuiteConfig(t.name)
		if err != nil {
			return nil, err
		}
		benchText, verilogText, err := netlists(t.c)
		if err != nil {
			return nil, err
		}
		d := t.d.Clone()
		out := d.Circuit.Outputs()[0]
		var moves []engine.Move
		for _, g := range d.Circuit.Gates() {
			if g.IsInput() || len(moves) == 256 {
				continue
			}
			mv, err := flipVth(d, g.ID)
			if err != nil {
				return nil, err
			}
			moves = append(moves, mv)
		}
		inc, err := ssta.NewIncremental(d)
		if err != nil {
			return nil, err
		}
		acc, err := leakage.NewAccumulator(d)
		if err != nil {
			return nil, err
		}
		sizes := d.Lib.Sizes
		orig := d.Size[out]
		flip := 0
		rungs := []struct {
			name  string
			scale float64 // seconds → the metric's unit
			n     int
			f     func() error
		}{
			{"bench.generate_ms", 1e3, 3, func() error { _, err := bench.Generate(cfg); return err }},
			{"bench.parse_ms", 1e3, 3, func() error { _, err := bench.ParseString(t.name, benchText); return err }},
			{"verilog.parse_ms", 1e3, 3, func() error { _, err := verilog.ParseString(verilogText); return err }},
			{"sta.analyze_ms", 1e3, 5, func() error { _, err := sta.Analyze(d, t.tmax); return err }},
			{"ssta.analyze_ms", 1e3, 3, func() error { _, err := ssta.Analyze(d); return err }},
			{"ssta.incr_update_us", 1e6, 50, func() error {
				flip++
				if err := d.SetSize(out, sizes[1+flip%2]); err != nil {
					return err
				}
				inc.Update(out)
				return nil
			}},
			{"leakage.update_us", 1e6, 200, func() error {
				acc.Update(out)
				_ = acc.Quantile(0.99)
				return nil
			}},
		}
		for _, r := range rungs {
			s, err := timeCalls(r.n, r.f)
			if err != nil {
				return nil, err
			}
			sum[r.name] += s * r.scale
		}
		if err := d.SetSize(out, orig); err != nil {
			return nil, err
		}

		e, err := engine.New(d, engine.Config{TmaxPs: t.tmax})
		if err != nil {
			return nil, err
		}
		i := 0
		s, err := timeCalls(50, func() error {
			mv := moves[i%len(moves)]
			i++
			if err := e.Apply(mv); err != nil {
				return err
			}
			if _, err := e.DelayQuantile(0.99); err != nil {
				return err
			}
			if _, err := e.LeakQuantile(0.99); err != nil {
				return err
			}
			return e.Revert(mv)
		})
		if err != nil {
			return nil, err
		}
		sum["engine.apply_revert_us"] += s * 1e6
		s, err = timeCalls(2, func() error { _, err := e.ScoreAll(moves); return err })
		if err != nil {
			return nil, err
		}
		sum["engine.score_all_us_per_move"] += s * 1e6 / float64(len(moves))
	}
	for k := range sum {
		sum[k] /= float64(len(targets))
	}
	return sum, nil
}
