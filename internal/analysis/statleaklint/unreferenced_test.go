package statleaklint_test

import (
	"fmt"
	"go/ast"
	"go/types"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/analysis"
)

// unreferencedAllowlist names the functions that no production file
// calls but that stay on purpose, keyed as importpath.Name or
// importpath.Recv.Name. Each is a test oracle: the slow, obvious
// reference a production path is checked against.
var unreferencedAllowlist = map[string]string{
	"repro/internal/sta.AnalyzeCorner":            "the from-scratch reference for Engine.Corner's memoized corner STA",
	"repro/internal/ssta.Result.StatisticalSlack": "the from-scratch reference for Engine and Family statistical slack",
	"repro/internal/ssta.Correlation":             "the correlation input of the stats.ClarkMax reference for ssta.Max",
	"repro/internal/variation.Model.Correlation":  "the analytic side of the analytic-vs-sampled TestMonteCarloPairCorrelation",
	"repro/internal/stats.Correlation":            "the sampled side of the analytic-vs-sampled TestMonteCarloPairCorrelation",
	"repro/internal/stats.AlmostEqual":            "the tolerance helper the floatcmp diagnostic tells authors to use",
}

// testSupportPackages are imported only by tests; every function in
// them is exempt.
var testSupportPackages = map[string]string{
	"repro/internal/fixture":               "shared test circuits",
	"repro/internal/analysis/analysistest": "the analyzer fixture runner",
}

// TestNoUnreferencedFuncs fails on any function or method declared in
// a non-test file of the module that no non-test file of the module
// (perfbench included) references. Code a production path does not
// reach is deleted together with the tests that only it served; the
// allowlists above hold the few deliberate exceptions. main, init and
// methods that satisfy an interface are not findings: the runtime or
// a dynamic call reaches them.
func TestNoUnreferencedFuncs(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	root := moduleRoot(t)
	pkgs, err := analysis.Load(root, "./...")
	if err != nil {
		t.Fatalf("loading repository packages: %v", err)
	}
	bench, err := analysis.Load(filepath.Join(root, "perfbench"), ".")
	if err != nil {
		t.Fatalf("loading perfbench: %v", err)
	}
	pkgs = append(pkgs, bench...)

	s := newRefScan()
	for _, lp := range pkgs {
		s.addPackage(lp)
	}

	loaded := make(map[string]bool, len(pkgs))
	imported := make(map[string]bool)
	for _, lp := range pkgs {
		loaded[lp.Path] = true
		for _, imp := range lp.Pkg.Imports() {
			imported[imp.Path()] = true
		}
	}
	for path := range testSupportPackages {
		switch {
		case !loaded[path]:
			t.Errorf("stale test-support entry %s: no such package", path)
		case imported[path]:
			t.Errorf("stale test-support entry %s: a production package imports it", path)
		}
	}

	var findings []string
	for _, d := range s.decls {
		if testSupportPackages[d.fn.Pkg().Path()] != "" || s.refs[d.key] || s.satisfiesInterface(d.fn) {
			continue
		}
		if _, ok := unreferencedAllowlist[d.key]; ok {
			continue
		}
		findings = append(findings, fmt.Sprintf("%s: %s is referenced by no production file", d.pos, d.key))
	}
	sort.Strings(findings)
	for _, f := range findings {
		t.Error(f)
	}
	if len(findings) > 0 {
		t.Errorf("%d unreferenced function(s): delete them with the tests that only they serve", len(findings))
	}

	declared := make(map[string]bool, len(s.decls))
	for _, d := range s.decls {
		declared[d.key] = true
	}
	for key := range unreferencedAllowlist {
		switch {
		case !declared[key]:
			t.Errorf("stale allowlist entry %s: no such function", key)
		case s.refs[key]:
			t.Errorf("stale allowlist entry %s: a production file now references it", key)
		}
	}
}

// funcDecl is one function or method declared in a production file.
type funcDecl struct {
	key string
	pos string
	fn  *types.Func
}

// refScan collects declarations, references and interfaces across
// packages. Load type-checks each package against export data, so an
// importer sees a different types.Object than the declaring package:
// everything is keyed by package path, receiver type name and name.
type refScan struct {
	decls []funcDecl
	refs  map[string]bool
	// ifaces maps a method name to the method-name sets of every
	// interface that declares it.
	ifaces map[string][]map[string]bool
	seen   map[*types.Interface]bool
}

func newRefScan() *refScan {
	s := &refScan{refs: make(map[string]bool), ifaces: make(map[string][]map[string]bool), seen: make(map[*types.Interface]bool)}
	s.addInterface(types.Universe.Lookup("error").Type())
	// fmt.Stringer: fmt's verbs call String dynamically.
	s.addInterface(types.NewInterfaceType([]*types.Func{
		types.NewFunc(0, nil, "String", types.NewSignatureType(nil, nil, nil, nil, types.NewTuple(types.NewVar(0, nil, "", types.Typ[types.String])), false)),
	}, nil))
	return s
}

// funcKey names fn as importpath.Name or importpath.Recv.Name.
func funcKey(fn *types.Func) string {
	fn = fn.Origin()
	if fn.Pkg() == nil {
		return fn.Name()
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return fn.Pkg().Path() + "." + fn.Name()
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return fn.Pkg().Path() + "." + n.Obj().Name() + "." + fn.Name()
	}
	return "" // a method of an interface literal
}

func (s *refScan) addPackage(lp *analysis.LoadedPackage) {
	for _, f := range lp.Files {
		for _, decl := range f.Decls {
			self := ""
			if fd, ok := decl.(*ast.FuncDecl); ok {
				fn := lp.Info.Defs[fd.Name].(*types.Func)
				self = funcKey(fn)
				name := fd.Name.Name
				entry := fd.Recv == nil && (name == "init" || name == "main" && lp.Pkg.Name() == "main")
				if !entry {
					s.decls = append(s.decls, funcDecl{key: self, pos: lp.Fset.Position(fd.Pos()).String(), fn: fn})
				}
			}
			// A function's own recursive calls do not keep it alive.
			ast.Inspect(decl, func(n ast.Node) bool {
				var obj types.Object
				switch n := n.(type) {
				case *ast.Ident:
					obj = lp.Info.Uses[n]
				case *ast.SelectorExpr:
					if sel := lp.Info.Selections[n]; sel != nil {
						obj = sel.Obj()
					}
				}
				if fn, ok := obj.(*types.Func); ok {
					if key := funcKey(fn); key != self {
						s.refs[key] = true
					}
				}
				return true
			})
		}
	}
	// Interfaces a method may satisfy: those the package declares or
	// imports, and every interface-typed expression.
	for _, obj := range lp.Info.Defs {
		if tn, ok := obj.(*types.TypeName); ok {
			s.addInterface(tn.Type())
		}
	}
	for _, imp := range lp.Pkg.Imports() {
		scope := imp.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				s.addInterface(tn.Type())
			}
		}
	}
	for _, tv := range lp.Info.Types {
		s.addInterface(tv.Type)
	}
}

func (s *refScan) addInterface(t types.Type) {
	if t == nil {
		return
	}
	it, ok := t.Underlying().(*types.Interface)
	if !ok || it.NumMethods() == 0 || s.seen[it] {
		return
	}
	s.seen[it] = true
	names := make(map[string]bool, it.NumMethods())
	for i := 0; i < it.NumMethods(); i++ {
		names[it.Method(i).Name()] = true
	}
	for name := range names {
		s.ifaces[name] = append(s.ifaces[name], names)
	}
}

// satisfiesInterface reports whether fn is a method whose name belongs
// to an interface that its receiver's method set implements in full.
// Names are compared, not types: types.Implements is false across
// separately checked packages.
func (s *refScan) satisfiesInterface(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	ms := types.NewMethodSet(types.NewPointer(t))
	have := make(map[string]bool, ms.Len())
	for i := 0; i < ms.Len(); i++ {
		have[ms.At(i).Obj().Name()] = true
	}
next:
	for _, want := range s.ifaces[fn.Name()] {
		for name := range want {
			if !have[name] {
				continue next
			}
		}
		return true
	}
	return false
}
