// Command experiments regenerates the paper's tables, figures and
// ablations (see DESIGN.md §5 for the experiment index).
//
// Usage:
//
//	experiments [flags] [id ...]
//
// With no IDs it runs everything in canonical order; experiments -list
// prints the valid IDs in that order.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/exp"
	"repro/internal/montecarlo"
	"repro/internal/scenario"
)

func main() {
	var (
		benchmarks = flag.String("benchmarks", strings.Join(exp.DefaultBenchmarks, ","),
			"comma-separated suite circuits for the per-benchmark experiments")
		tmaxFactor = flag.Float64("tmax-factor", 1.3, "delay constraint as a multiple of Dmin")
		samples    = flag.Int("samples", 2000, "Monte Carlo samples per evaluation")
		seed       = flag.Int64("seed", 1, "Monte Carlo seed")
		sampling   = flag.String("sampling", "plain", "Monte Carlo sampling: plain, lhs, or is (importance sampling aimed at each evaluation's Tmax)")
		list       = flag.Bool("list", false, "list experiment IDs and exit")

		corners     = flag.String("corners", "", "scenario-table voltage corners, comma-separated (vl, vn, vh)")
		temps       = flag.String("temps", "", "scenario-table temperatures [°C], comma-separated")
		biasDomains = flag.Int("bias-domains", 0, "scenario-table body-bias well islands (0 = no bias axis)")
		bias        = flag.String("bias", "", "per-domain reverse body bias [V], comma-separated (one value broadcasts)")
		aggregate   = flag.String("aggregate", "", "corner aggregation: worst (default) or weighted")
	)
	flag.Parse()

	if *list {
		for _, e := range exp.Experiments {
			fmt.Println(e.ID)
		}
		return
	}

	smode, err := montecarlo.ParseSampling(*sampling)
	if err != nil {
		fatal(err)
	}
	ctx := exp.NewContext(os.Stdout)
	ctx.TmaxFactor = *tmaxFactor
	ctx.MCSamples = *samples
	ctx.Seed = *seed
	ctx.Sampling = smode
	if *benchmarks != "" {
		ctx.Benchmarks = strings.Split(*benchmarks, ",")
	}
	spec, err := scenario.ParseFlags(*corners, *temps, *biasDomains, *bias, *aggregate)
	if err != nil {
		fatal(err)
	}
	if !spec.IsZero() {
		ctx.Scenario = spec
	}

	ids := flag.Args()
	if len(ids) == 0 {
		if err := ctx.RunAll(); err != nil {
			fatal(err)
		}
	} else {
		for _, id := range ids {
			if err := ctx.Run(id); err != nil {
				fatal(err)
			}
		}
	}
	if len(ctx.Infeasible) > 0 {
		fatal(fmt.Errorf("constraint missed in headline tables: %s (relax -tmax-factor)",
			strings.Join(ctx.Infeasible, "; ")))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
