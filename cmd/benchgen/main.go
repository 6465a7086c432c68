// Command benchgen writes synthetic ISCAS85-class netlists in .bench
// format.
//
// Usage:
//
//	benchgen -name s880            # one circuit to stdout
//	benchgen -all -dir ./bench     # the whole suite to a directory
//	benchgen -inputs 32 -outputs 8 -gates 500 -depth 20 -seed 7
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/bench"
	"repro/internal/logic"
	"repro/internal/verilog"
)

func main() {
	var (
		name    = flag.String("name", "", "suite circuit name (s432 … s7552, q344 … q5378)")
		all     = flag.Bool("all", false, "generate the whole suite (combinational + sequential)")
		dir     = flag.String("dir", ".", "output directory for -all")
		format  = flag.String("format", "bench", "output format: bench or verilog")
		inputs  = flag.Int("inputs", 0, "custom circuit: primary inputs")
		outputs = flag.Int("outputs", 0, "custom circuit: primary outputs")
		gates   = flag.Int("gates", 0, "custom circuit: target gate count")
		depth   = flag.Int("depth", 0, "custom circuit: target logic depth")
		seed    = flag.Int64("seed", 1, "custom circuit: generation seed")
	)
	flag.Parse()

	emit, ext, err := emitter(*format)
	if err != nil {
		fatal(err)
	}
	switch {
	case *all:
		if err := writeSuite(*dir, emit, ext); err != nil {
			fatal(err)
		}
	case *name != "":
		c, err := bench.GenerateNamed(*name)
		if err != nil {
			fatal(err)
		}
		if err := emit(os.Stdout, c); err != nil {
			fatal(err)
		}
	case *gates > 0:
		c, err := bench.Generate(bench.Config{
			Name:    "custom",
			Inputs:  *inputs,
			Outputs: *outputs,
			Gates:   *gates,
			Depth:   *depth,
			Seed:    *seed,
		})
		if err != nil {
			fatal(err)
		}
		if err := emit(os.Stdout, c); err != nil {
			fatal(err)
		}
	default:
		fmt.Fprintln(os.Stderr, "benchgen: need -name, -all, or -gates (see -h)")
		os.Exit(2)
	}
}

// emitter selects the output format.
func emitter(format string) (func(io.Writer, *logic.Circuit) error, string, error) {
	switch format {
	case "bench":
		return bench.Write, ".bench", nil
	case "verilog":
		return verilog.Write, ".v", nil
	}
	return nil, "", fmt.Errorf("benchgen: unknown format %q (bench, verilog)", format)
}

func writeSuite(dir string, emit func(io.Writer, *logic.Circuit) error, ext string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var names []string
	names = append(names, bench.SuiteNames()...)
	names = append(names, bench.SeqSuiteNames()...)
	for _, name := range names {
		c, err := bench.GenerateNamed(name)
		if err != nil {
			return err
		}
		path := filepath.Join(dir, c.Name+ext)
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := emit(f, c); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Println("wrote", path)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchgen:", err)
	os.Exit(1)
}
