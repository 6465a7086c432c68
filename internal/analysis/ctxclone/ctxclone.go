// Package ctxclone defines the statleaklint analyzer that polices the
// engine's one concurrency contract: worker-pool goroutines never
// touch shared mutable evaluation state directly — they work on
// clones (Design.Clone, Accumulator.CloneFor, Incremental.CloneFor)
// or on immutable context snapshotted before the fan-out.
//
// The Monte Carlo pool's replayability rests on this (as any future
// scoring fan-out's determinism would): a goroutine that reads d.Vth or
// applies a move against the shared design races with its siblings,
// and -race only catches the schedules a given run happens to
// exercise. The analyzer flags any `go func` closure that captures a
// variable of a shared-state type (core.Design, engine.Engine,
// ssta.Incremental, leakage.Accumulator) unless the use is a call
// into the clone path or a read of immutable context fields
// (Design.Circuit/Lib/Var, Engine.cfg).
//
// The search-driver rewrite (PR 4) extends the same capture
// discipline to search.Policy callbacks. A policy closure that
// captures a *core.Design outlives every commit, revert and Refresh
// the driver performs between calls, so the pointer is a standing
// invitation to read state the engine is mid-way through changing.
// The sanctioned handle is the *engine.Engine itself: a callback that
// needs design state calls e.Design() at call time (and gets the
// post-commit view the engine vouches for). Rebinding a captured
// variable — bestState = d.Clone() incumbent bookkeeping — stays
// legal: writing the variable is not touching shared state.
package ctxclone

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "ctxclone",
	Doc: "forbid worker goroutines from capturing shared engine state " +
		"except through the clone path or immutable context reads",
	Run: run,
}

// typeKey identifies a named type by package path and name.
type typeKey struct{ path, name string }

// SharedTypes are the mutable evaluation-state types a pool goroutine
// must not touch directly.
var SharedTypes = map[typeKey]bool{
	{"repro/internal/core", "Design"}:         true,
	{"repro/internal/engine", "Engine"}:       true,
	{"repro/internal/engine", "Family"}:       true,
	{"repro/internal/ssta", "Incremental"}:    true,
	{"repro/internal/leakage", "Accumulator"}: true,
}

// CloneMethods are the methods that constitute the engine's clone
// path: calling them on captured shared state is the approved way to
// get a private copy.
var CloneMethods = map[string]bool{
	"Clone":    true,
	"CloneFor": true,
}

// ImmutableFields lists per-type fields that are shared immutable
// context, safe to read from any goroutine.
var ImmutableFields = map[typeKey]map[string]bool{
	{"repro/internal/core", "Design"}:   {"Circuit": true, "Lib": true, "Var": true},
	{"repro/internal/engine", "Engine"}: {"cfg": true},
}

// PolicyPath/PolicyType identify the search-policy struct whose
// callback literals get the capture discipline, and PolicyHandles the
// shared types they may capture: the evaluation handles the driver
// keeps current between rounds — the engine and the corner family.
// Their accessors are the sanctioned window onto evaluation state; a
// per-corner context pulled out of a Family (f.Engines()[k]) is NOT
// such a handle and must not be held across rounds.
var (
	PolicyPath    = "repro/internal/search"
	PolicyType    = "Policy"
	PolicyHandles = map[typeKey]bool{
		{"repro/internal/engine", "Engine"}: true,
		{"repro/internal/engine", "Family"}: true,
	}
)

// FamilyCornerAccessors are the engine.Family methods that hand out
// per-corner evaluation contexts. A variable bound from one of them is
// corner state, not a driver handle, even though its static type
// (*engine.Engine) would otherwise pass the policy-handle check.
var FamilyCornerAccessors = map[string]bool{
	"Engines": true,
	"Primary": true,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		corner := cornerContextVars(pass, f)
		policyLits := analysis.CompositeFuncLits(pass, f, PolicyPath, PolicyType)
		for lit := range policyLits {
			checkCaptures(pass, lit, policyMode, corner)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if lit, ok := analysis.Unparen(gs.Call.Fun).(*ast.FuncLit); ok {
				checkCaptures(pass, lit, workerMode, nil)
			}
			return true
		})
	}
	return nil
}

// sharedKey returns the SharedTypes key for t (through one pointer),
// or a zero key.
func sharedKey(t types.Type) typeKey {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return typeKey{}
	}
	k := typeKey{named.Obj().Pkg().Path(), named.Obj().Name()}
	if !SharedTypes[k] {
		return typeKey{}
	}
	return k
}

// checkMode selects which closure contract checkCaptures enforces.
type checkMode int

const (
	// workerMode: a `go func` pool worker. Captured shared state is a
	// data race; only the clone path and immutable context are safe.
	workerMode checkMode = iota
	// policyMode: a search.Policy callback. Single-goroutine, but the
	// closure outlives every commit/revert/Refresh between calls, so
	// captured evaluation state goes stale; the engine handle is the
	// sanctioned window, and rebinding a captured variable is legal.
	policyMode
)

// cornerContextVars collects the file's variables bound from a
// Family's per-corner accessors (f.Engines()[k], f.Primary()): the
// taint set the policy check consults so a corner engine cannot pose
// as the driver handle.
func cornerContextVars(pass *analysis.Pass, f *ast.File) map[*types.Var]bool {
	var out map[*types.Var]bool
	mark := func(lhs ast.Expr) {
		if id, ok := analysis.Unparen(lhs).(*ast.Ident); ok {
			if v, ok := pass.TypesInfo.Defs[id].(*types.Var); ok {
				if out == nil {
					out = make(map[*types.Var]bool)
				}
				out[v] = true
			}
		}
	}
	fromCorner := func(rhs ast.Expr) bool {
		found := false
		ast.Inspect(rhs, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := analysis.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok || !FamilyCornerAccessors[sel.Sel.Name] {
				return true
			}
			if tv, ok := pass.TypesInfo.Types[sel.X]; ok {
				if k := sharedKey(tv.Type); k == (typeKey{"repro/internal/engine", "Family"}) {
					found = true
					return false
				}
			}
			return true
		})
		return found
	}
	ast.Inspect(f, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			if i < len(as.Rhs) && fromCorner(as.Rhs[i]) {
				mark(lhs)
			} else if len(as.Rhs) == 1 && len(as.Lhs) > 1 && fromCorner(as.Rhs[0]) {
				mark(lhs)
			}
		}
		return true
	})
	return out
}

// checkCaptures flags captured shared state used outside the clone
// path inside one closure.
func checkCaptures(pass *analysis.Pass, lit *ast.FuncLit, mode checkMode, corner map[*types.Var]bool) {
	reported := make(map[token.Pos]bool)
	analysis.WithStack(lit.Body, func(n ast.Node, stack []ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || reported[id.Pos()] {
			return true
		}
		obj, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok {
			return true
		}
		// Field names in a selector are judged through the selector's
		// base expression, not as captures themselves.
		if len(stack) > 0 {
			if sel, ok := stack[len(stack)-1].(*ast.SelectorExpr); ok && sel.Sel == id {
				return true
			}
		}
		// Free variable: declared outside the closure (or in another
		// package entirely).
		if obj.Pkg() == pass.Pkg && obj.Pos() >= lit.Pos() && obj.Pos() <= lit.End() {
			return true
		}
		key := sharedKey(obj.Type())
		if key == (typeKey{}) {
			return true
		}
		if mode == policyMode {
			if corner[obj] {
				reported[id.Pos()] = true
				pass.Reportf(id.Pos(), "search policy captures shared %s.%s %q: read evaluation state through the engine handle at call time (e.Design()) instead of holding a pointer across rounds", shortPath(key.path), key.name, id.Name)
				return true
			}
			if PolicyHandles[key] {
				return true
			}
			if rebinding(id, stack) {
				return true
			}
		}
		if allowedUse(pass, key, id, stack) {
			return true
		}
		reported[id.Pos()] = true
		switch mode {
		case policyMode:
			pass.Reportf(id.Pos(), "search policy captures shared %s.%s %q: read evaluation state through the engine handle at call time (e.Design()) instead of holding a pointer across rounds", shortPath(key.path), key.name, id.Name)
		default:
			pass.Reportf(id.Pos(), "worker goroutine captures shared %s.%s %q: route it through the engine clone path (Clone/CloneFor) or snapshot immutable context before the fan-out", shortPath(key.path), key.name, id.Name)
		}
		return true
	})
}

// rebinding reports whether id is itself an assignment target:
// overwriting the captured variable (incumbent bookkeeping like
// bestState = d.Clone()) touches the variable, not the shared state
// it previously pointed to.
func rebinding(id *ast.Ident, stack []ast.Node) bool {
	cur := ast.Expr(id)
	for i := len(stack) - 1; i >= 0; i-- {
		switch parent := stack[i].(type) {
		case *ast.ParenExpr:
			cur = parent
			continue
		case *ast.AssignStmt:
			for _, lhs := range parent.Lhs {
				if lhs == cur {
					return true
				}
			}
		}
		return false
	}
	return false
}

func shortPath(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[i+1:]
		}
	}
	return path
}

// allowedUse reports whether this use of a captured shared variable is
// sanctioned: the receiver chain of a clone-path call, or a first-level
// read of an immutable context field.
func allowedUse(pass *analysis.Pass, key typeKey, id *ast.Ident, stack []ast.Node) bool {
	var cur ast.Expr = id
	first := true
	for i := len(stack) - 1; i >= 0; i-- {
		switch parent := stack[i].(type) {
		case *ast.ParenExpr:
			cur = parent
			continue
		case *ast.SelectorExpr:
			if parent.X != cur {
				return false
			}
			if first {
				if imm := ImmutableFields[key]; imm != nil && imm[parent.Sel.Name] {
					return true
				}
				first = false
			}
			// A method in the clone path selected directly on the value.
			if i > 0 {
				if call, ok := stack[i-1].(*ast.CallExpr); ok && call.Fun == parent && CloneMethods[parent.Sel.Name] {
					return true
				}
			}
			cur = parent
			continue
		}
		return false
	}
	return false
}
