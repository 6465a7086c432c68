// Quickstart: build a tiny circuit by hand, bind it to the 100nm
// dual-Vth library and variation model, and look at its timing and
// leakage — nominal, statistical, and Monte Carlo.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/leakage"
	"repro/internal/montecarlo"
	"repro/internal/ssta"
	"repro/internal/sta"
	"repro/internal/tech"
	"repro/internal/variation"
)

func main() {
	// 1. A netlist. Here: the classic c17 from its .bench text; you can
	// also build circuits programmatically with logic.New/AddGate.
	c, err := bench.ParseString("c17", bench.C17)
	if err != nil {
		log.Fatal(err)
	}

	// 2. Technology: the 100nm-class dual-Vth cell library and the
	// default variation model (6% σ(Leff): 40% die-to-die, 40%
	// spatially correlated, 20% independent).
	params := tech.Default100nm()
	lib, err := tech.NewLibrary(params)
	if err != nil {
		log.Fatal(err)
	}
	vm, err := variation.New(variation.Default(params.LeffNom))
	if err != nil {
		log.Fatal(err)
	}

	// 3. A design point: every gate starts low-Vth at minimum size.
	d, err := core.NewDesign(c, lib, vm)
	if err != nil {
		log.Fatal(err)
	}

	// 4. Deterministic timing.
	timing, err := sta.Analyze(d, 1e9)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("nominal delay: %.1f ps (critical path %v)\n",
		timing.MaxDelay, pathNames(d, timing))

	// 5. Statistical timing: the circuit delay as a distribution.
	sr, err := ssta.Analyze(d)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("statistical delay: mean %.1f ps, sigma %.1f ps, 99th pct %.1f ps\n",
		sr.Delay.Mean, sr.Delay.Sigma(), sr.Quantile(0.99))

	// 6. Statistical leakage: nominal vs the lognormal reality.
	an, err := leakage.Exact(d)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("leakage: nominal %.1f nW, statistical mean %.1f nW, 99th pct %.1f nW\n",
		d.TotalLeak(), an.MeanNW, an.Quantile(0.99))

	// 7. Swap one gate to high Vth and watch the trade-off.
	g, _ := c.GateByName("G10")
	if err := d.SetVth(g.ID, tech.HighVth); err != nil {
		log.Fatal(err)
	}
	timing2, err := sta.Analyze(d, 1e9)
	if err != nil {
		log.Fatal(err)
	}
	an2, err := leakage.Exact(d)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after G10 → HVT: delay %.1f ps (%+.1f), q99 leakage %.1f nW (%+.1f)\n",
		timing2.MaxDelay, timing2.MaxDelay-timing.MaxDelay,
		an2.Quantile(0.99), an2.Quantile(0.99)-an.Quantile(0.99))

	// 8. Monte Carlo ground truth.
	mc, err := montecarlo.Run(d, montecarlo.Config{Samples: 5000, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Monte Carlo (5000 dies): delay mean %.1f ps, leak q99 %.1f nW\n",
		mc.DelaySummary().Mean, mc.LeakQuantile(0.99))
}

func pathNames(d *core.Design, r *sta.Result) []string {
	var names []string
	for _, id := range r.CriticalPath(d, nil) {
		names = append(names, d.Circuit.Gate(id).Name)
	}
	return names
}
