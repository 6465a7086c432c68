// Package enginemutate defines the statleaklint analyzer that guards
// the evaluation engine's central invariant (PR 1): the per-gate
// assignment state of a core.Design — the Vth and Size slices, and
// since the scenario-family refactor the per-node BiasVth corner
// context — is written only through the engine's Move Apply/Revert
// path (which precondition-checks every write), core's validating
// setters, or the Family-owned corner views core.CornerView builds.
//
// A direct slice write from an optimizer desynchronizes the engine's
// incremental SSTA and factored-leakage caches without tripping any
// error: scores drift, reverts no longer return to the baseline,
// and the corruption surfaces far from its cause. The analyzer flags
// direct writes to those fields outside internal/core and
// internal/engine, and also flags capturing the raw slices (which
// would enable the same unchecked mutation one step removed). Reads —
// d.Vth[i] in an expression, ranging, len — stay free.
//
// The search-driver rewrite (PR 4) tightens the rule further where the
// engine's caches are guaranteed live: inside internal/search itself,
// and inside the callbacks of a search.Policy composite literal, even
// core's validating setters (SetVth, SetSize, SetSizeIndex,
// CopyAssignmentFrom) are forbidden — they keep the Design
// self-consistent but still bypass the engine's incremental caches. A
// policy mutates the design only by returning moves for the driver to
// apply. Setter calls in ordinary optimizer code
// (preparing a start point before the engine exists, restoring an
// incumbent before a Refresh) stay legal.
package enginemutate

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "enginemutate",
	Doc: "forbid direct writes to core.Design assignment state (Vth/Size) " +
		"outside the engine's transactional Move path",
	Run: run,
}

// DesignPath and AssignmentFields identify the guarded state.
var (
	DesignPath       = "repro/internal/core"
	DesignType       = "Design"
	AssignmentFields = map[string]bool{"Vth": true, "Size": true, "BiasVth": true}
	// ExemptPkgs may mutate directly: core owns the fields, engine owns
	// the transactional move path.
	ExemptPkgs = map[string]bool{
		"repro/internal/core":   true,
		"repro/internal/engine": true,
	}
	// MutatorMethods are core.Design's validating setters: safe for the
	// design, invisible to a live engine.
	MutatorMethods = map[string]bool{
		"SetVth":             true,
		"SetSize":            true,
		"SetSizeIndex":       true,
		"CopyAssignmentFrom": true,
	}
	// RestrictedPkgs run with a live engine throughout, so even the
	// validating setters are forbidden there.
	RestrictedPkgs = map[string]bool{
		"repro/internal/search": true,
	}
	// PolicyPath/PolicyType identify the search-policy struct whose
	// callbacks get the same restriction in any package.
	PolicyPath = "repro/internal/search"
	PolicyType = "Policy"
)

func run(pass *analysis.Pass) error {
	if ExemptPkgs[pass.Pkg.Path()] {
		return nil
	}
	restricted := RestrictedPkgs[pass.Pkg.Path()]
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		policyLits := analysis.CompositeFuncLits(pass, f, PolicyPath, PolicyType)
		analysis.WithStack(f, func(n ast.Node, stack []ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if fld := assignmentField(pass, lhs); fld != "" {
						pass.Reportf(lhs.Pos(), "direct write to core.Design.%s outside internal/engine: route the mutation through an engine.Move (Apply/Revert) or a core setter", fld)
					}
				}
			case *ast.IncDecStmt:
				if fld := assignmentField(pass, n.X); fld != "" {
					pass.Reportf(n.X.Pos(), "direct write to core.Design.%s outside internal/engine: route the mutation through an engine.Move (Apply/Revert) or a core setter", fld)
				}
			case *ast.SelectorExpr:
				if fld := bareField(pass, n); fld != "" && aliasing(stack, n) {
					pass.Reportf(n.Pos(), "aliasing core.Design.%s exposes the assignment state to unchecked mutation; index it in place or go through the engine", fld)
				}
			case *ast.CallExpr:
				if m := mutatorCall(pass, n); m != "" && (restricted || inPolicyLit(stack, policyLits)) {
					pass.Reportf(n.Pos(), "core.Design.%s bypasses the live engine's move log and caches: a search policy mutates the design only by returning engine moves", m)
				}
			}
			return true
		})
	}
	return nil
}

// mutatorCall reports which guarded setter call is a direct
// invocation of a core.Design mutator method; "" otherwise.
func mutatorCall(pass *analysis.Pass, call *ast.CallExpr) string {
	sel, ok := analysis.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !MutatorMethods[sel.Sel.Name] {
		return ""
	}
	s, ok := pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return ""
	}
	t := s.Recv()
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	if named.Obj().Pkg().Path() != DesignPath || named.Obj().Name() != DesignType {
		return ""
	}
	return sel.Sel.Name
}

// inPolicyLit reports whether the node whose ancestor stack is given
// lies inside one of the file's search.Policy callback literals.
func inPolicyLit(stack []ast.Node, lits map[*ast.FuncLit]bool) bool {
	if len(lits) == 0 {
		return false
	}
	for _, n := range stack {
		if fl, ok := n.(*ast.FuncLit); ok && lits[fl] {
			return true
		}
	}
	return false
}

// assignmentField reports which guarded field lhs writes into:
// d.Vth[i], d.Size[i] (possibly through parens), or a whole-slice
// replacement d.Vth = ...; "" if none.
func assignmentField(pass *analysis.Pass, lhs ast.Expr) string {
	e := analysis.Unparen(lhs)
	if ix, ok := e.(*ast.IndexExpr); ok {
		e = analysis.Unparen(ix.X)
	}
	if sel, ok := e.(*ast.SelectorExpr); ok {
		return bareField(pass, sel)
	}
	return ""
}

// bareField reports which guarded field sel selects on a core.Design
// value; "" if it is some other selector.
func bareField(pass *analysis.Pass, sel *ast.SelectorExpr) string {
	if !AssignmentFields[sel.Sel.Name] {
		return ""
	}
	s, ok := pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return ""
	}
	t := s.Recv()
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	if named.Obj().Pkg().Path() != DesignPath || named.Obj().Name() != DesignType {
		return ""
	}
	return sel.Sel.Name
}

// aliasing reports whether the bare (unindexed) field selector escapes
// as a value: bound to a variable, passed to a call, returned, or sent
// somewhere. Indexing, ranging, and len/cap are reads and stay free.
func aliasing(stack []ast.Node, sel *ast.SelectorExpr) bool {
	cur := ast.Expr(sel)
	for i := len(stack) - 1; i >= 0; i-- {
		switch parent := stack[i].(type) {
		case *ast.ParenExpr:
			cur = parent
			continue
		case *ast.IndexExpr:
			return false // d.Vth[i]: an element access, judged by the caller
		case *ast.RangeStmt:
			return false // `for range d.Vth` is a read
		case *ast.BinaryExpr:
			// A slice only admits ==/!= against nil: a presence check
			// (d.BiasVth != nil), not an escape.
			if parent.Op == token.EQL || parent.Op == token.NEQ {
				return false
			}
			return true
		case *ast.CallExpr:
			// len(d.Vth)/cap(d.Vth) are reads; any other call receives
			// the raw slice and can mutate it out of the engine's sight.
			if id, ok := analysis.Unparen(parent.Fun).(*ast.Ident); ok && (id.Name == "len" || id.Name == "cap") {
				return false
			}
			return true
		case *ast.SelectorExpr:
			return false // selecting further off the slice (none today)
		case *ast.AssignStmt:
			for _, lhs := range parent.Lhs {
				if lhs == cur {
					return false // the write itself; reported as a write
				}
			}
			return true
		default:
			return true
		}
	}
	return false
}
