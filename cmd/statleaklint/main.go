// Command statleaklint runs the repository's determinism/
// move-discipline/concurrency analyzer suite
// (internal/analysis/statleaklint).
//
// Standalone over package patterns (exit 1 on findings):
//
//	go run ./cmd/statleaklint ./...
//
// Machine-readable reports (suppressed findings included, marked):
//
//	go run ./cmd/statleaklint -json ./...
//	go run ./cmd/statleaklint -sarif -out lint.sarif ./...
//
// Audit the in-source //lint:ignore suppressions:
//
//	go run ./cmd/statleaklint -suppressions ./...
//
// Or as a vet tool, speaking the cmd/go vet config protocol:
//
//	go build -o statleaklint ./cmd/statleaklint
//	go vet -vettool=$(pwd)/statleaklint ./...
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/statleaklint"
)

// printVersion answers `-V=full` in the form cmd/go's toolID parser
// accepts: "<name> version devel buildID=<id>", so `go vet -vettool`
// keys its action cache on this binary's content and re-runs the
// suite when the analyzers change.
func printVersion() {
	exe, err := os.Executable()
	if err != nil {
		exe = os.Args[0]
	}
	name := strings.TrimSuffix(filepath.Base(exe), ".exe")
	if out, err := exec.Command("go", "tool", "buildid", exe).Output(); err == nil {
		if id := strings.TrimSpace(string(out)); id != "" {
			fmt.Printf("%s version devel buildID=%s\n", name, id)
			return
		}
	}
	fmt.Printf("%s version statleaklint-1\n", name)
}

func main() {
	var (
		versionFlag = flag.String("V", "", "print version (vet protocol)")
		flagsFlag   = flag.Bool("flags", false, "print flag definitions as JSON (vet protocol)")
		listFlag    = flag.Bool("list", false, "list the analyzers and exit")
		jsonFlag    = flag.Bool("json", false, "emit the findings as JSON")
		sarifFlag   = flag.Bool("sarif", false, "emit the findings as SARIF 2.1.0")
		outFlag     = flag.String("out", "", "write the report to this file instead of stdout")
		supsFlag    = flag.Bool("suppressions", false, "list every //lint:ignore suppression and exit (exit 1 on malformed ones)")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: statleaklint [packages]   # standalone, default ./...\n"+
				"       statleaklint <file>.cfg   # go vet -vettool protocol\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	switch {
	case *versionFlag != "":
		printVersion() // cmd/go keys its action cache on this line
		return
	case *flagsFlag:
		fmt.Println("[]")
		return
	case *listFlag:
		for _, a := range statleaklint.Analyzers() {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	args := flag.Args()
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		vetMode(args[0]) // exits
	}
	if len(args) == 0 {
		args = []string{"./..."}
	}

	pkgs, err := analysis.Load(".", args...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "statleaklint:", err)
		os.Exit(2)
	}

	if *supsFlag {
		listSuppressions(pkgs) // exits
	}

	res, err := analysis.RunAnalyzersDetail(pkgs, statleaklint.Analyzers())
	if err != nil {
		fmt.Fprintln(os.Stderr, "statleaklint:", err)
		os.Exit(2)
	}
	relativize(res)

	var out io.Writer = os.Stdout
	var outFile *os.File
	if *outFlag != "" {
		outFile, err = os.Create(*outFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, "statleaklint:", err)
			os.Exit(2)
		}
		out = outFile
	}
	switch {
	case *jsonFlag:
		err = analysis.WriteJSON(out, statleaklint.Analyzers(), res)
	case *sarifFlag:
		err = analysis.WriteSARIF(out, statleaklint.Analyzers(), res)
	default:
		for _, f := range res.Findings {
			fmt.Fprintln(out, f)
		}
	}
	if outFile != nil {
		if cerr := outFile.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "statleaklint:", err)
		os.Exit(2)
	}
	if len(res.Findings) > 0 {
		fmt.Fprintf(os.Stderr, "statleaklint: %d finding(s)\n", len(res.Findings))
		os.Exit(1)
	}
}

// relativize rewrites finding paths relative to the working directory
// so reports are stable across checkouts (and match what SARIF viewers
// expect for repository-rooted artifact URIs).
func relativize(res *analysis.Result) {
	wd, err := os.Getwd()
	if err != nil {
		return
	}
	for _, list := range [][]analysis.Finding{res.Findings, res.Suppressed} {
		for i := range list {
			if rel, err := filepath.Rel(wd, list[i].Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
				list[i].Pos.Filename = filepath.ToSlash(rel)
			}
		}
	}
}

// listSuppressions prints every //lint:ignore comment with its
// analyzers and reason, then any malformed ones, and exits — nonzero
// when a suppression fails the enforced-reason check.
func listSuppressions(pkgs []*analysis.LoadedPackage) {
	sups, problems := analysis.CollectSuppressions(pkgs)
	wd, _ := os.Getwd()
	for _, s := range sups {
		name := s.Pos.Filename
		if wd != "" {
			if rel, err := filepath.Rel(wd, name); err == nil && !strings.HasPrefix(rel, "..") {
				name = filepath.ToSlash(rel)
			}
		}
		fmt.Printf("%s:%d: [%s] %s\n", name, s.Pos.Line, strings.Join(s.Analyzers, ","), s.Reason)
	}
	for _, p := range problems {
		fmt.Println(p)
	}
	fmt.Fprintf(os.Stderr, "statleaklint: %d suppression(s), %d problem(s)\n", len(sups), len(problems))
	if len(problems) > 0 {
		os.Exit(1)
	}
	os.Exit(0)
}
