// Command leakopt runs the statistical (and optionally the
// deterministic baseline) leakage optimizer on one circuit and prints
// a before/after scoreboard.
//
// Usage:
//
//	leakopt -circuit s880                 # synthetic suite circuit
//	leakopt -bench path/to/c432.bench     # real ISCAS85 netlist file
//	leakopt -bench path/to/design.v       # structural Verilog (by extension)
//	leakopt -circuit s880 -mode both -tmax-factor 1.25 -samples 3000
//	leakopt -circuit s432 -mode stat -corners vl,vh -temps 0,110
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/leakage"
	"repro/internal/libfile"
	"repro/internal/logic"
	"repro/internal/montecarlo"
	"repro/internal/opt"
	"repro/internal/scenario"
	"repro/internal/ssta"
	"repro/internal/tech"
	"repro/internal/variation"
	"repro/internal/verilog"
)

func main() {
	var (
		circuit    = flag.String("circuit", "", "synthetic suite circuit name (s432 … s7552, q344 … q5378)")
		benchFile  = flag.String("bench", "", "path to a .bench netlist file")
		preset     = flag.String("preset", "100nm", "technology preset: 130nm, 100nm, 70nm")
		techFile   = flag.String("tech", "", "path to a technology file overriding the preset (see internal/libfile)")
		mode       = flag.String("mode", "both", "optimizer: det, stat, or both")
		tmaxFactor = flag.Float64("tmax-factor", 1.3, "delay constraint as a multiple of Dmin")
		yieldTgt   = flag.Float64("yield", 0.99, "timing-yield target for the statistical optimizer")
		pctile     = flag.Float64("percentile", 0.99, "leakage percentile objective")
		samples    = flag.Int("samples", 2000, "Monte Carlo samples for the final scoreboard (0 = skip MC)")
		seed       = flag.Int64("seed", 1, "Monte Carlo seed")
		sampling   = flag.String("sampling", "plain", "Monte Carlo sampling: plain, lhs, or is (importance sampling aimed at Tmax)")

		corners     = flag.String("corners", "", "voltage corners, comma-separated (vl, vn, vh); with -temps spans a scenario matrix")
		temps       = flag.String("temps", "", "operating temperatures [°C], comma-separated")
		biasDomains = flag.Int("bias-domains", 0, "body-bias well islands (0 = no bias axis)")
		biasV       = flag.String("bias", "", "per-domain reverse body bias [V], comma-separated (one value broadcasts)")
		aggregate   = flag.String("aggregate", "", "corner aggregation: worst (default) or weighted")
	)
	flag.Parse()

	smode, err := montecarlo.ParseSampling(*sampling)
	if err != nil {
		fatal(err)
	}
	c, err := loadCircuit(*circuit, *benchFile)
	if err != nil {
		fatal(err)
	}
	p, err := tech.Preset(*preset)
	if err != nil {
		fatal(err)
	}
	lib, err := loadLibrary(p, *techFile)
	if err != nil {
		fatal(err)
	}
	p = lib.P
	vm, err := variation.New(variation.Default(p.LeffNom))
	if err != nil {
		fatal(err)
	}
	d, err := core.NewDesign(c, lib, vm)
	if err != nil {
		fatal(err)
	}

	ref := d.Clone()
	dmin, err := opt.MinimumDelay(ref)
	if err != nil {
		fatal(err)
	}
	o := opt.DefaultOptions(*tmaxFactor * dmin)
	o.YieldTarget = *yieldTgt
	o.LeakPercentile = *pctile

	spec, err := scenario.ParseFlags(*corners, *temps, *biasDomains, *biasV, *aggregate)
	if err != nil {
		fatal(err)
	}
	if !spec.IsZero() {
		o.Scenario = spec
	}

	st, err := c.ComputeStats()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("circuit %s: %d gates, %d PIs, %d POs, depth %d\n",
		c.Name, st.Gates, st.Inputs, st.Outputs, st.Depth)
	fmt.Printf("Dmin = %.1f ps, Tmax = %.1f ps, yield target = %.2f, objective = q%g leakage\n",
		dmin, o.TmaxPs, o.YieldTarget, 100*(*pctile))
	if o.Scenario != nil {
		rs, err := o.Scenario.Resolve(d.Lib, d.Circuit)
		if err != nil {
			fatal(err)
		}
		names := make([]string, len(rs))
		for i, r := range rs {
			names[i] = r.Name
		}
		fmt.Printf("scenario matrix: %d corners [%s], %s aggregation\n",
			len(names), strings.Join(names, " "), o.Scenario.Aggregation())
	}
	fmt.Println()

	printState("unoptimized (min-size, all LVT)", d, o, *samples, *seed, smode)

	var infeasible []string
	if *mode == "det" || *mode == "both" {
		det := d.Clone()
		res, err := opt.Deterministic(det, o)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("deterministic (corner %.1fσ): %d moves (%d ups, %d swaps, %d downs), feasible=%v, %.2fs\n",
			o.CornerSigma, res.Moves, res.SizeUps, res.VthSwaps, res.SizeDowns,
			res.Feasible, res.Runtime.Seconds())
		printCorners(res.Corners)
		printState("deterministic result", det, o, *samples, *seed, smode)
		if !res.Feasible {
			infeasible = append(infeasible, "deterministic")
		}
	}
	if *mode == "stat" || *mode == "both" {
		stat := d.Clone()
		res, err := opt.Statistical(stat, o)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("statistical (yield ≥ %.2f): %d moves (%d ups, %d swaps, %d downs), feasible=%v, %.2fs\n",
			o.YieldTarget, res.Moves, res.SizeUps, res.VthSwaps, res.SizeDowns,
			res.Feasible, res.Runtime.Seconds())
		printCorners(res.Corners)
		printState("statistical result", stat, o, *samples, *seed, smode)
		if !res.Feasible {
			infeasible = append(infeasible, "statistical")
		}
	}
	if len(infeasible) > 0 {
		fatal(fmt.Errorf("constraint not met by: %s (relax -tmax-factor or -yield)",
			strings.Join(infeasible, ", ")))
	}
}

// loadLibrary applies an optional technology file over the preset.
func loadLibrary(p *tech.Params, techPath string) (*tech.Library, error) {
	if techPath == "" {
		return tech.NewLibrary(p)
	}
	f, err := os.Open(techPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tf, err := libfile.Parse(f, p)
	if err != nil {
		return nil, err
	}
	return tf.Library()
}

func loadCircuit(suiteName, path string) (*logic.Circuit, error) {
	switch {
	case suiteName != "" && path != "":
		return nil, fmt.Errorf("leakopt: use -circuit or -bench, not both")
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
		return nil, fmt.Errorf("leakopt: need -circuit or -bench (see -h)")
	}
}

func printState(label string, d *core.Design, o opt.Options, samples int, seed int64, smode montecarlo.Sampling) {
	sr, err := ssta.Analyze(d)
	if err != nil {
		fatal(err)
	}
	an, err := leakage.Exact(d)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("  %s:\n", label)
	fmt.Printf("    delay: mean %.1f ps, sigma %.1f ps, q99 %.1f ps, yield(Tmax) %.4f\n",
		sr.Delay.Mean, sr.Delay.Sigma(), sr.Quantile(0.99), sr.Yield(o.TmaxPs))
	fmt.Printf("    leakage: nominal %.0f nW, mean %.0f nW, q%.0f %.0f nW\n",
		d.TotalLeak(), an.MeanNW, 100*o.LeakPercentile, an.Quantile(o.LeakPercentile))
	fmt.Printf("    assignment: %d/%d HVT, avg size %.2f\n",
		d.CountHVT(), d.Circuit.NumGates(), d.AvgSize())
	if samples > 0 {
		mc, err := montecarlo.Run(d, montecarlo.Config{
			Samples: samples, Seed: seed, Sampling: smode, TmaxPs: o.TmaxPs,
		})
		if err != nil {
			fatal(err)
		}
		y, err := mc.TimingYield(o.TmaxPs)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("    MC (%d dies, %s): yield(Tmax) %.4f, leak mean %.0f nW, leak q99 %.0f nW\n",
			samples, smode, y, mc.LeakMean(), mc.LeakQuantile(0.99))
		if smode == montecarlo.ImportanceSampling {
			fmt.Printf("    IS diagnostics: ESS %.0f of %d, weight variance %.3g\n",
				mc.ESS(), samples, mc.WeightVariance())
		}
	}
	fmt.Println()
}

// printCorners lists the per-corner end-state scoreboard of a
// scenario-family run (empty outside scenario mode).
func printCorners(cs []engine.CornerMetrics) {
	for _, c := range cs {
		fmt.Printf("  corner %-10s yield(Tmax) %.4f, leak q %.0f nW, leak mean %.0f nW, corner delay %.1f ps\n",
			c.Name+":", c.YieldAtTmax, c.LeakPctNW, c.LeakMeanNW, c.CornerDelayPs)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "leakopt:", err)
	os.Exit(1)
}
