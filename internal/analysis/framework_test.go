package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
)

var (
	fwExportOnce sync.Once
	fwExports    map[string]string
	fwExportErr  error
)

// checkSrc type-checks one in-memory source file as package path
// "p" against the stdlib export data.
func checkSrc(t *testing.T, src string) *LoadedPackage {
	t.Helper()
	fwExportOnce.Do(func() {
		fwExports, fwExportErr = ExportMap(".", "std")
	})
	if fwExportErr != nil {
		t.Fatalf("building export map: %v", fwExportErr)
	}
	dir := t.TempDir()
	file := filepath.Join(dir, "p.go")
	if err := os.WriteFile(file, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	imp := NewImporter(fset, fwExports)
	lp, err := CheckFiles(fset, "p", []string{file}, imp, "")
	if err != nil {
		t.Fatalf("type-checking: %v", err)
	}
	return lp
}

func TestInTestdata(t *testing.T) {
	cases := []struct {
		path string
		want bool
	}{
		{"repro/internal/analysis/errdrop/testdata/src/a", true},
		{"testdata", true},
		{"a/testdata", true},
		{"testdata/src/a", true},
		{"repro/internal/analysis", false},
		{"repro/internal/testdatalike", false},
		{"mytestdata/src", false},
		{"", false},
	}
	for _, c := range cases {
		if got := InTestdata(c.path); got != c.want {
			t.Errorf("InTestdata(%q) = %v, want %v", c.path, got, c.want)
		}
	}
}

func TestLoadSkipsTestdata(t *testing.T) {
	// An explicit testdata package argument must be dropped: cmd/go
	// only excludes testdata from wildcard expansion, so the loader has
	// to enforce the convention for direct arguments too.
	pkgs, err := Load("../..", "./internal/analysis/errdrop/testdata/src/a")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	for _, lp := range pkgs {
		if InTestdata(lp.Path) {
			t.Errorf("Load returned testdata package %s", lp.Path)
		}
	}
	if len(pkgs) != 0 {
		t.Errorf("Load returned %d package(s) for a testdata-only pattern, want 0", len(pkgs))
	}
}

const callGraphSrc = `package p

import (
	"context"
	"sync"
)

type srv struct {
	queue chan int
	wg    sync.WaitGroup
}

func (s *srv) drain() {
	for range s.queue {
	}
}

func (s *srv) spawnDrain() {
	go s.drain()
}

func (s *srv) waitAll() {
	s.wg.Wait()
}

func (s *srv) callsWait() {
	s.waitAll()
}

func (s *srv) ctxed(ctx context.Context) error {
	return ctx.Err()
}

func pure(a, b int) int { return a + b }

func callsPure() int { return pure(1, 2) }
`

func TestCallGraphFacts(t *testing.T) {
	lp := checkSrc(t, callGraphSrc)
	g := BuildCallGraph(lp)
	fn := func(name string) *CGNode {
		t.Helper()
		for f, n := range g.nodes {
			if f.Name() == name {
				return n
			}
		}
		t.Fatalf("function %s not in call graph", name)
		return nil
	}
	if n := fn("drain"); !g.MayBlock(n.Fn) || !g.HasStopSignal(n.Fn) {
		t.Errorf("drain ranges over a channel: MayBlock and HasStopSignal should hold")
	}
	if n := fn("spawnDrain"); g.MayBlock(n.Fn) {
		t.Errorf("spawnDrain only launches a goroutine: the go subtree must not make the spawner blocking")
	}
	if n := fn("callsWait"); !g.MayBlock(n.Fn) {
		t.Errorf("callsWait reaches wg.Wait through a callee: MayBlock should propagate")
	}
	if n := fn("ctxed"); !g.HasStopSignal(n.Fn) {
		t.Errorf("ctxed checks ctx.Err(): HasStopSignal should hold")
	}
	if n := fn("callsPure"); g.MayBlock(n.Fn) || g.HasStopSignal(n.Fn) {
		t.Errorf("callsPure has no concurrency facts, got mayBlock=%v hasStop=%v",
			g.MayBlock(n.Fn), g.HasStopSignal(n.Fn))
	}
}

const suppressSrc = `package p

func risky() {}

func a() {
	//lint:ignore testrule the call is sanctioned here for the test
	risky()
}

func b() {
	risky()
}

func c() {
	//lint:ignore testrule
	risky()
}

func d() {
	//lint:ignore otherrule reason that does not match testrule
	risky()
}
`

func TestSuppressions(t *testing.T) {
	lp := checkSrc(t, suppressSrc)
	calls := &Analyzer{
		Name: "testrule",
		Doc:  "flags every call",
		Run: func(pass *Pass) error {
			for _, f := range pass.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					if call, ok := n.(*ast.CallExpr); ok {
						pass.Reportf(call.Pos(), "call flagged")
					}
					return true
				})
			}
			return nil
		},
	}
	findings, err := RunAnalyzers([]*LoadedPackage{lp}, []*Analyzer{calls})
	if err != nil {
		t.Fatal(err)
	}
	// a()'s ignore silences its call. c()'s ignore has no reason, so it
	// silences nothing and is itself a finding; d()'s names another
	// analyzer, so it silences nothing.
	var got []string
	for _, f := range findings {
		got = append(got, fmt.Sprintf("%s:%d", f.Analyzer, f.Pos.Line))
	}
	want := []string{"testrule:11", "suppression:15", "testrule:16", "testrule:21"}
	if !slices.Equal(got, want) {
		t.Errorf("findings %v, want %v", got, want)
	}

	// The -suppressions listing: the two well-formed ignores with their
	// parsed analyzers and reasons, and the reasonless one as a problem.
	sups, problems := CollectSuppressions([]*LoadedPackage{lp})
	if len(sups) != 2 || len(problems) != 1 {
		t.Fatalf("got %d suppressions and %d problems, want 2 and 1", len(sups), len(problems))
	}
	if s := sups[0]; s.Pos.Line != 6 || !slices.Equal(s.Analyzers, []string{"testrule"}) ||
		s.Reason != "the call is sanctioned here for the test" {
		t.Errorf("a()'s suppression parsed as %+v", s)
	}
	if s := sups[1]; s.Pos.Line != 20 || !slices.Equal(s.Analyzers, []string{"otherrule"}) ||
		s.Reason != "reason that does not match testrule" {
		t.Errorf("d()'s suppression parsed as %+v", s)
	}
	if p := problems[0]; p.Analyzer != "suppression" || p.Pos.Line != 15 {
		t.Errorf("reasonless ignore reported as %v", p)
	}
}
