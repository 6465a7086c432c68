// Package analysis is a minimal, dependency-free re-implementation of
// the golang.org/x/tools/go/analysis vocabulary, sized for this
// repository's needs: an Analyzer runs over one type-checked package
// and reports Diagnostics. The statleaklint suite (see the analyzer
// subpackages and cmd/statleaklint) uses it to mechanically enforce
// the engine's determinism and move-discipline invariants that
// previously lived only in prose (DESIGN.md §"Static analysis").
//
// The framework deliberately mirrors the upstream API surface
// (Analyzer.Name/Doc/Run, Pass.Report/Reportf, analysistest-style
// golden tests) so the suite can be ported to x/tools verbatim once
// the dependency is available; only package loading differs — see
// load.go, which shells out to `go list -export` and type-checks with
// the stdlib gc export-data importer instead of go/packages.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name is the short command-line identifier of the check.
	Name string
	// Doc is the one-paragraph description shown by -list.
	Doc string
	// Run executes the check on one package.
	Run func(*Pass) error
}

// Pass carries one package's syntax and type information to an
// analyzer, and collects its diagnostics.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Graph is the package's static call graph (see callgraph.go),
	// shared by every analyzer running on the package. It answers the
	// interprocedural questions the per-function walks cannot: does
	// this function flow into a goroutine, may this call block, does
	// this goroutine body reach a stop signal.
	Graph  *CallGraph
	Report func(Diagnostic)
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// IsTestFile reports whether pos lies in a _test.go file. The suite's
// invariants target production code; tests may seed ad hoc RNGs or
// poke design state directly to set up scenarios.
func (p *Pass) IsTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// Finding is a resolved diagnostic: position plus originating
// analyzer, ready for printing or comparison.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// RunAnalyzers applies every analyzer to every loaded package and
// returns the findings no //lint:ignore silences, sorted by position
// then analyzer name — a stable order regardless of analyzer
// registration or map iteration. Suppression problems (a //lint:ignore
// without a reason, a malformed comment) are themselves findings, so a
// reasonless ignore can never silently pass CI.
func RunAnalyzers(pkgs []*LoadedPackage, analyzers []*Analyzer) ([]Finding, error) {
	var out []Finding
	for _, lp := range pkgs {
		var pkgFindings []Finding
		graph := BuildCallGraph(lp)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      lp.Fset,
				Files:     lp.Files,
				Pkg:       lp.Pkg,
				TypesInfo: lp.Info,
				Graph:     graph,
				Report: func(d Diagnostic) {
					pkgFindings = append(pkgFindings, Finding{
						Analyzer: a.Name,
						Pos:      lp.Fset.Position(d.Pos),
						Message:  d.Message,
					})
				},
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s on %s: %w", a.Name, lp.Path, err)
			}
		}
		sups, problems := collectSuppressions(lp.Fset, lp.Files)
		out = append(out, applySuppressions(pkgFindings, sups)...)
		out = append(out, problems...)
	}
	sortFindings(out)
	return out, nil
}

func sortFindings(out []Finding) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}
