// Command statleaklint runs the repository's determinism/
// move-discipline/concurrency analyzer suite
// (internal/analysis/statleaklint) over package patterns and prints
// one `file:line:col: analyzer: message` line per finding. It exits 0
// when clean, 1 on findings and 2 when the packages fail to load or an
// analyzer fails:
//
//	go run ./cmd/statleaklint ./...
//
// Audit the in-source //lint:ignore suppressions:
//
//	go run ./cmd/statleaklint -suppressions ./...
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/statleaklint"
)

func main() {
	var (
		listFlag = flag.Bool("list", false, "list the analyzers and exit")
		supsFlag = flag.Bool("suppressions", false, "list every //lint:ignore suppression and exit (exit 1 on malformed ones)")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: statleaklint [flags] [packages]   # default ./...\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *listFlag {
		for _, a := range statleaklint.Analyzers() {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	args := flag.Args()
	if len(args) == 0 {
		args = []string{"./..."}
	}
	pkgs, err := analysis.Load(".", args...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "statleaklint:", err)
		os.Exit(2)
	}
	wd, _ := os.Getwd() // without it the report keeps absolute paths

	if *supsFlag {
		listSuppressions(wd, pkgs) // exits
	}

	findings, err := analysis.RunAnalyzers(pkgs, statleaklint.Analyzers())
	if err != nil {
		fmt.Fprintln(os.Stderr, "statleaklint:", err)
		os.Exit(2)
	}
	for _, f := range findings {
		f.Pos.Filename = relativize(wd, f.Pos.Filename)
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "statleaklint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// relativize returns name relative to the working directory wd when it
// lies below it, so the report is stable across checkouts.
func relativize(wd, name string) string {
	if rel, err := filepath.Rel(wd, name); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return name
}

// listSuppressions prints every //lint:ignore comment with its
// analyzers and reason, then any malformed ones, and exits — nonzero
// when a suppression fails the enforced-reason check.
func listSuppressions(wd string, pkgs []*analysis.LoadedPackage) {
	sups, problems := analysis.CollectSuppressions(pkgs)
	for _, s := range sups {
		fmt.Printf("%s:%d: [%s] %s\n", relativize(wd, s.Pos.Filename), s.Pos.Line, strings.Join(s.Analyzers, ","), s.Reason)
	}
	for _, p := range problems {
		p.Pos.Filename = relativize(wd, p.Pos.Filename)
		fmt.Println(p)
	}
	fmt.Fprintf(os.Stderr, "statleaklint: %d suppression(s), %d problem(s)\n", len(sups), len(problems))
	if len(problems) > 0 {
		os.Exit(1)
	}
	os.Exit(0)
}
