// Package analysistest runs an analyzer over golden fixture packages
// under testdata/src and compares its diagnostics against `// want`
// comments, mirroring golang.org/x/tools/go/analysis/analysistest.
//
// A fixture file marks each expected diagnostic on the offending line:
//
//	d.Vth[0] = tech.HighVth // want `direct write to core\.Design\.Vth`
//
// The string is a regexp (quoted or backquoted); several may follow
// one `want`. Lines without a want comment must stay diagnostic-free,
// so every fixture is simultaneously a true-positive and a
// non-finding test. Fixtures may import repository packages: the
// harness type-checks them against the module's gc export data
// (built once per test binary via `go list -export ./... std`).
package analysistest

import (
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/analysis"
)

var (
	exportOnce sync.Once
	exportMap  map[string]string
	exportErr  error
)

// moduleRoot locates the enclosing module's directory via `go env
// GOMOD`, so tests work from any package directory.
func moduleRoot() (string, error) {
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		return "", fmt.Errorf("go env GOMOD: %v", err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == os.DevNull {
		return "", fmt.Errorf("not inside a module")
	}
	return filepath.Dir(gomod), nil
}

func exports() (map[string]string, error) {
	exportOnce.Do(func() {
		root, err := moduleRoot()
		if err != nil {
			exportErr = err
			return
		}
		// "std" alongside the module patterns lets fixtures import any
		// standard package, not just those the repository happens to use.
		exportMap, exportErr = analysis.ExportMap(root, "./...", "std")
	})
	return exportMap, exportErr
}

// expectation is one want regexp anchored to a file:line.
type expectation struct {
	file string
	line int
	rx   *regexp.Regexp
}

var wantRe = regexp.MustCompile(`(?m)want (.*)$`)

// parseWants extracts the expectations from a fixture file's comments.
func parseWants(t *testing.T, fset *token.FileSet, f *ast.File) []expectation {
	t.Helper()
	var out []expectation
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			m := wantRe.FindStringSubmatch(c.Text)
			if m == nil {
				continue
			}
			pos := fset.Position(c.Pos())
			rest := strings.TrimSpace(m[1])
			for rest != "" {
				var lit string
				switch rest[0] {
				case '"':
					end := strings.Index(rest[1:], `"`)
					if end < 0 {
						t.Fatalf("%s:%d: unterminated want string", pos.Filename, pos.Line)
					}
					lit = rest[:end+2]
				case '`':
					end := strings.Index(rest[1:], "`")
					if end < 0 {
						t.Fatalf("%s:%d: unterminated want string", pos.Filename, pos.Line)
					}
					lit = rest[:end+2]
				default:
					t.Fatalf("%s:%d: malformed want comment %q", pos.Filename, pos.Line, c.Text)
				}
				rest = strings.TrimSpace(rest[len(lit):])
				s, err := strconv.Unquote(lit)
				if err != nil {
					t.Fatalf("%s:%d: bad want string %s: %v", pos.Filename, pos.Line, lit, err)
				}
				rx, err := regexp.Compile(s)
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, s, err)
				}
				out = append(out, expectation{file: pos.Filename, line: pos.Line, rx: rx})
			}
		}
	}
	return out
}

// Run type-checks each fixture package under testdata/src and checks
// the analyzer's diagnostics against the fixtures' want comments.
func Run(t *testing.T, a *analysis.Analyzer, fixtures ...string) {
	t.Helper()
	exp, err := exports()
	if err != nil {
		t.Fatalf("building export map: %v", err)
	}
	for _, fixture := range fixtures {
		fixture := fixture
		t.Run(fixture, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", fixture)
			matches, err := filepath.Glob(filepath.Join(dir, "*.go"))
			if err != nil || len(matches) == 0 {
				t.Fatalf("no fixture files in %s (%v)", dir, err)
			}
			sort.Strings(matches)
			fset := token.NewFileSet()
			imp := analysis.NewImporter(fset, exp)
			lp, err := analysis.CheckFiles(fset, fixture, matches, imp, "")
			if err != nil {
				t.Fatalf("loading fixture: %v", err)
			}
			findings, err := analysis.RunAnalyzers([]*analysis.LoadedPackage{lp}, []*analysis.Analyzer{a})
			if err != nil {
				t.Fatalf("running %s: %v", a.Name, err)
			}
			var wants []expectation
			for _, f := range lp.Files {
				wants = append(wants, parseWants(t, fset, f)...)
			}
			matched := make([]bool, len(wants))
		diags:
			for _, d := range findings {
				for i, w := range wants {
					if !matched[i] && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.rx.MatchString(d.Message) {
						matched[i] = true
						continue diags
					}
				}
				t.Errorf("unexpected diagnostic: %s", d)
			}
			for i, w := range wants {
				if !matched[i] {
					t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.rx)
				}
			}
		})
	}
}
