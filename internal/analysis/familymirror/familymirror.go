// Package familymirror defines the statleaklint analyzer that keeps
// the corner family's single-application invariant: a move is applied
// to the shared assignment exactly once — through Family.Apply/Revert
// — and *mirrored* into every other corner's caches. The per-corner
// engines a Family hands out via Engines()/Primary() alias one
// assignment; driving Apply/Revert/Refresh on one of them directly
// mutates state the sibling corners believe they own, desynchronizing
// their incremental caches in a way no error check catches (the
// second corner's precondition check never runs).
//
// The analyzer taints every variable bound from a Family's corner
// accessors — assignment, multi-assign, index expression, or range
// over Engines() — and flags any mutating engine call on a tainted
// value or chained directly onto an accessor. Reads (Yield, scoring,
// Timing) stay legal: corner engines are exactly the read surface.
// internal/engine itself is exempt — the Family implementation is the
// mirror mechanism.
package familymirror

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "familymirror",
	Doc: "corner engines from Family.Engines()/Primary() must not receive " +
		"Apply/Revert/Refresh calls: commit through the Family so every corner mirrors the move",
	Run: run,
}

// EnginePath/FamilyName locate the guarded types; OwnerPath is the
// package allowed to drive corner engines directly (the Family
// implementation itself).
const (
	EnginePath = "repro/internal/engine"
	FamilyName = "Family"
	OwnerPath  = "repro/internal/engine"
)

// CornerAccessors are the Family methods that hand out per-corner
// engines.
var CornerAccessors = map[string]bool{
	"Engines": true,
	"Primary": true,
}

// MutatingMethods are the engine methods that change the shared
// assignment or rebuild caches — the calls that must route through the
// Family.
var MutatingMethods = map[string]bool{
	"Apply":   true,
	"Revert":  true,
	"Refresh": true,
}

func run(pass *analysis.Pass) error {
	if pass.Pkg.Path() == OwnerPath {
		return nil
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		tainted := cornerVars(pass, f)
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := analysis.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok || !MutatingMethods[sel.Sel.Name] {
				return true
			}
			recv := analysis.Unparen(sel.X)
			if fromAccessor(pass, recv) {
				pass.Reportf(call.Pos(),
					"corner engine from Family accessor receives %s directly: commit through the Family (Apply/Revert/Refresh) so every corner mirrors the move",
					sel.Sel.Name)
				return true
			}
			if id, ok := recv.(*ast.Ident); ok {
				if v, ok := pass.TypesInfo.Uses[id].(*types.Var); ok && tainted[v] {
					pass.Reportf(call.Pos(),
						"corner engine %q (bound from a Family accessor) receives %s directly: commit through the Family so every corner mirrors the move",
						id.Name, sel.Sel.Name)
				}
			}
			return true
		})
	}
	return nil
}

// isFamily reports whether t is (a pointer to) engine.Family.
func isFamily(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == EnginePath && named.Obj().Name() == FamilyName
}

// fromAccessor reports whether expr is derived from a Family corner
// accessor call: f.Primary(), f.Engines()[i], (f.Engines())[i], …
func fromAccessor(pass *analysis.Pass, expr ast.Expr) bool {
	switch e := analysis.Unparen(expr).(type) {
	case *ast.IndexExpr:
		return fromAccessor(pass, e.X)
	case *ast.CallExpr:
		sel, ok := analysis.Unparen(e.Fun).(*ast.SelectorExpr)
		if !ok || !CornerAccessors[sel.Sel.Name] {
			return false
		}
		return isFamily(pass.TypesInfo.TypeOf(sel.X))
	}
	return false
}

// cornerVars collects the file's variables bound from Family corner
// accessors: direct assignment (e := f.Primary()), indexed assignment
// (e := f.Engines()[k]), slice binding (es := f.Engines()), indexing a
// bound slice, and range over Engines() or a bound slice.
func cornerVars(pass *analysis.Pass, f *ast.File) map[*types.Var]bool {
	out := map[*types.Var]bool{}
	mark := func(e ast.Expr) {
		if id, ok := analysis.Unparen(e).(*ast.Ident); ok {
			if v, ok := pass.TypesInfo.Defs[id].(*types.Var); ok {
				out[v] = true
			}
		}
	}
	boundVar := func(e ast.Expr) bool {
		if id, ok := analysis.Unparen(e).(*ast.Ident); ok {
			if v, ok := pass.TypesInfo.Uses[id].(*types.Var); ok {
				return out[v]
			}
		}
		return false
	}
	// Two sweeps so a range/index over a slice variable bound earlier in
	// the file is caught regardless of declaration order within one
	// function body (Inspect visits in source order, which matches
	// dataflow order for straight-line binding code).
	for i := 0; i < 2; i++ {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					if i < len(n.Rhs) && (fromAccessor(pass, n.Rhs[i]) || boundVar(n.Rhs[i]) || indexOfBound(pass, n.Rhs[i], out)) {
						mark(lhs)
					}
				}
			case *ast.RangeStmt:
				if fromAccessor(pass, n.X) || boundVar(n.X) {
					if n.Value != nil {
						mark(n.Value)
					}
				}
			}
			return true
		})
	}
	return out
}

// indexOfBound reports whether expr indexes a variable already marked
// as accessor-bound (es[k] where es := f.Engines()).
func indexOfBound(pass *analysis.Pass, expr ast.Expr, bound map[*types.Var]bool) bool {
	ix, ok := analysis.Unparen(expr).(*ast.IndexExpr)
	if !ok {
		return false
	}
	if id, ok := analysis.Unparen(ix.X).(*ast.Ident); ok {
		if v, ok := pass.TypesInfo.Uses[id].(*types.Var); ok {
			return bound[v]
		}
	}
	return false
}
