// Command report prints a timing/leakage analysis report for one
// circuit — the report_timing/report_power analogue of the toolkit:
// nominal and statistical delay, the k worst paths, the most critical
// gates (by SSTA criticality probability), and the biggest leakers.
//
// Usage:
//
//	report -circuit s880
//	report -bench design.bench -paths 10 -leakers 15
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/leakage"
	"repro/internal/logic"
	"repro/internal/ssta"
	"repro/internal/sta"
	"repro/internal/tech"
	"repro/internal/variation"
	"repro/internal/verilog"
)

func main() {
	var (
		circuit   = flag.String("circuit", "", "synthetic suite circuit name")
		benchFile = flag.String("bench", "", "path to a .bench or .v netlist")
		preset    = flag.String("preset", "100nm", "technology preset")
		nPaths    = flag.Int("paths", 5, "worst paths to report")
		nLeakers  = flag.Int("leakers", 10, "top leaking gates to report")
		nCrit     = flag.Int("critical", 10, "most critical gates to report")
	)
	flag.Parse()

	c, err := loadCircuit(*circuit, *benchFile)
	if err != nil {
		fatal(err)
	}
	p, err := tech.Preset(*preset)
	if err != nil {
		fatal(err)
	}
	lib, err := tech.NewLibrary(p)
	if err != nil {
		fatal(err)
	}
	vm, err := variation.New(variation.Default(p.LeffNom))
	if err != nil {
		fatal(err)
	}
	d, err := core.NewDesign(c, lib, vm)
	if err != nil {
		fatal(err)
	}

	st, err := c.ComputeStats()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("report for %s (%s)\n", c.Name, p.Name)
	fmt.Printf("  %d gates (%d FFs), %d PIs, %d POs, depth %d, max fanout %d\n\n",
		st.Gates, c.NumDffs(), st.Inputs, st.Outputs, st.Depth, st.MaxFanout)

	// Timing: analyze once for the max delay, then re-analyze with
	// Tmax = MaxDelay so slacks are zero-normalized.
	tr0, err := sta.Analyze(d, 1)
	if err != nil {
		fatal(err)
	}
	tr, err := sta.Analyze(d, tr0.MaxDelay)
	if err != nil {
		fatal(err)
	}
	// One SSTA pass serves the statistical delay, the yield curve and
	// the criticality probabilities.
	sr, err := ssta.Analyze(d)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("timing (all cells LVT, min size):\n")
	fmt.Printf("  nominal max delay  %10.1f ps\n", tr.MaxDelay)
	fmt.Printf("  statistical        %10.1f ps mean, %.1f ps sigma, %.1f ps q99\n\n",
		sr.Delay.Mean, sr.Delay.Sigma(), sr.Quantile(0.99))

	// Timing-yield curve around the nominal max delay.
	fmt.Printf("timing yield (SSTA):\n")
	for _, f := range []float64{1.0, 1.05, 1.1, 1.2, 1.3} {
		tmax := f * tr0.MaxDelay
		fmt.Printf("  T = %.2f x nominal (%8.1f ps): %.4f\n", f, tmax, sr.Yield(tmax))
	}
	fmt.Println()

	paths, err := sta.TopPaths(d, *nPaths)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("worst %d paths:\n", len(paths))
	for i, pth := range paths {
		fmt.Printf("  %2d. %s\n", i+1, sta.FormatPath(d, pth))
	}
	fmt.Println()

	// Criticality.
	crit, err := sr.Criticality(d)
	if err != nil {
		fatal(err)
	}
	type gateVal struct {
		id int
		v  float64
	}
	var cv []gateVal
	for _, g := range c.Gates() {
		if g.Type != logic.Input {
			cv = append(cv, gateVal{g.ID, crit[g.ID]})
		}
	}
	sort.Slice(cv, func(i, j int) bool { return cv[i].v > cv[j].v })
	fmt.Printf("most critical gates (P(on critical path)):\n")
	for i := 0; i < *nCrit && i < len(cv); i++ {
		g := c.Gate(cv[i].id)
		fmt.Printf("  %-12s %-6s crit %.3f  slack %.1f ps\n",
			g.Name, g.Type, cv[i].v, tr.Slack[g.ID])
	}
	fmt.Println()

	// Leakage.
	an, err := leakage.Exact(d)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("leakage:\n")
	fmt.Printf("  nominal %.0f nW, statistical mean %.0f nW, q99 %.0f nW (%.2fx nominal)\n\n",
		d.TotalLeak(), an.MeanNW, an.Quantile(0.99), an.Quantile(0.99)/d.TotalLeak())

	var lv []gateVal
	for _, g := range c.Gates() {
		if g.Type != logic.Input {
			lv = append(lv, gateVal{g.ID, d.GateLeak(g.ID)})
		}
	}
	sort.Slice(lv, func(i, j int) bool { return lv[i].v > lv[j].v })
	fmt.Printf("top leakers:\n")
	for i := 0; i < *nLeakers && i < len(lv); i++ {
		g := c.Gate(lv[i].id)
		fmt.Printf("  %-12s %-6s %8.1f nW  (crit %.3f)\n", g.Name, g.Type, lv[i].v, crit[g.ID])
	}
}

func loadCircuit(suiteName, path string) (*logic.Circuit, error) {
	switch {
	case suiteName != "" && path != "":
		return nil, fmt.Errorf("report: use -circuit or -bench, not both")
	case suiteName != "":
		return bench.GenerateNamed(suiteName)
	case path != "":
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if strings.HasSuffix(path, ".v") || strings.HasSuffix(path, ".sv") {
			return verilog.Parse(f)
		}
		return bench.Parse(path, f)
	default:
		return nil, fmt.Errorf("report: need -circuit or -bench (see -h)")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "report:", err)
	os.Exit(1)
}
