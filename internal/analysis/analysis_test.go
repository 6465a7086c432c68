package analysis_test

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis"
)

func moduleRoot(t *testing.T) string {
	t.Helper()
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		t.Fatalf("go env GOMOD: %v", err)
	}
	return filepath.Dir(strings.TrimSpace(string(out)))
}

// TestLoad type-checks a real module package through the export-data
// importer and sanity-checks the populated type information.
func TestLoad(t *testing.T) {
	pkgs, err := analysis.Load(moduleRoot(t), "./internal/stats")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	lp := pkgs[0]
	if lp.Path != "repro/internal/stats" {
		t.Errorf("path = %q", lp.Path)
	}
	if len(lp.Files) == 0 || lp.Pkg == nil || lp.Info == nil {
		t.Fatalf("incomplete load: files=%d pkg=%v", len(lp.Files), lp.Pkg)
	}
	if lp.Pkg.Scope().Lookup("AlmostEqual") == nil {
		t.Errorf("stats.AlmostEqual not in package scope")
	}
}

// problemMatcher is the pattern of the CI problem matcher that turns
// statleaklint's report lines into annotations, with the group number
// of each field.
type problemMatcher struct {
	Regexp                            string
	File, Line, Column, Code, Message int
}

func readProblemMatcher(t *testing.T, root string) (*regexp.Regexp, problemMatcher) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(root, ".github", "statleaklint-problem-matcher.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		ProblemMatcher []struct{ Pattern []problemMatcher }
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.ProblemMatcher) != 1 || len(doc.ProblemMatcher[0].Pattern) != 1 {
		t.Fatalf("want one matcher with one pattern, got %+v", doc)
	}
	pm := doc.ProblemMatcher[0].Pattern[0]
	return regexp.MustCompile(pm.Regexp), pm
}

// TestRunAnalyzersOrder checks findings come back sorted by position,
// and that each finding's report line parses under the CI problem
// matcher with every field in its group.
func TestRunAnalyzersOrder(t *testing.T) {
	root := moduleRoot(t)
	pkgs, err := analysis.Load(root, "./internal/stats")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	reportAll := &analysis.Analyzer{
		Name: "reportall",
		Doc:  "reports every function declaration (test helper)",
		Run: func(pass *analysis.Pass) error {
			for _, f := range pass.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					if fd, ok := n.(*ast.FuncDecl); ok {
						pass.Reportf(fd.Pos(), "func %s", fd.Name.Name)
					}
					return true
				})
			}
			return nil
		},
	}
	findings, err := analysis.RunAnalyzers(pkgs, []*analysis.Analyzer{reportAll})
	if err != nil {
		t.Fatalf("RunAnalyzers: %v", err)
	}
	if len(findings) < 5 {
		t.Fatalf("got %d findings, want several", len(findings))
	}
	for i := 1; i < len(findings); i++ {
		a, b := findings[i-1].Pos, findings[i].Pos
		if a.Filename > b.Filename || (a.Filename == b.Filename && a.Line > b.Line) {
			t.Errorf("findings out of order: %v before %v", a, b)
		}
	}
	rx, pm := readProblemMatcher(t, root)
	for _, f := range findings {
		m := rx.FindStringSubmatch(f.String())
		if m == nil {
			t.Errorf("problem matcher does not match %q", f)
			continue
		}
		for _, w := range []struct {
			group int
			want  string
		}{
			{pm.File, f.Pos.Filename},
			{pm.Line, strconv.Itoa(f.Pos.Line)},
			{pm.Column, strconv.Itoa(f.Pos.Column)},
			{pm.Code, f.Analyzer},
			{pm.Message, f.Message},
		} {
			if w.group <= 0 || w.group >= len(m) || m[w.group] != w.want {
				t.Errorf("problem matcher on %q: group %d is not %q", f, w.group, w.want)
			}
		}
	}
}

// TestWithStack checks ancestor tracking and subtree pruning.
func TestWithStack(t *testing.T) {
	src := "package p\nfunc f() { g(h(1)) }\nfunc g(int) {}\nfunc h(int) int { return 0 }\n"
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	sawLit := false
	analysis.WithStack(f, func(n ast.Node, stack []ast.Node) bool {
		if lit, ok := n.(*ast.BasicLit); ok && lit.Value == "1" {
			sawLit = true
			// Expect ... CallExpr(g) CallExpr(h) above the literal.
			calls := 0
			for _, a := range stack {
				if _, ok := a.(*ast.CallExpr); ok {
					calls++
				}
			}
			if calls != 2 {
				t.Errorf("literal has %d enclosing calls, want 2", calls)
			}
			if _, ok := stack[0].(*ast.File); !ok {
				t.Errorf("stack[0] = %T, want *ast.File", stack[0])
			}
		}
		return true
	})
	if !sawLit {
		t.Error("walk never reached the literal")
	}
}
