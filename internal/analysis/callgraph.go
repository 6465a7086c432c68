package analysis

// Package-level call graph with the two interprocedural facts the
// concurrency analyzers need. The per-function AST walks of the
// original suite judge one body at a time; the PR 4–6 invariants
// (ctx-dominated round loops, goroutine stop signals, no blocking
// under a lock) are properties of *paths through* functions, so the
// framework builds one static call graph per package and hands it to
// every Pass:
//
//   - MayBlock: the function contains, or reaches a function that
//     contains, a blocking operation (channel send/receive, select
//     without default, WaitGroup/Cond Wait, time.Sleep, net/http
//     round-trips).
//   - HasStopSignal: the function contains, or reaches, something
//     that can end or unblock a goroutine's life: a channel
//     operation, a select, a ctx.Done()/ctx.Err() consultation, or a
//     WaitGroup.Done handoff.
//
// Resolution is static and package-local: calls through interfaces,
// function values, or other packages' bodies do not add edges. That
// keeps the graph cheap (one walk per function) and the analyzers
// conservative in the right direction for their rules: goroleak and
// lockscope only *excuse* code based on facts the graph can prove.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// CGNode is one function in the package call graph.
type CGNode struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	// Callees are the statically-resolved same-package functions this
	// function calls synchronously (calls inside `go` closures belong
	// to the spawned goroutine, not to this node).
	Callees []*types.Func

	// direct (single-body) facts
	blocksDirect bool
	stopDirect   bool

	// transitive facts, computed once per graph
	mayBlock bool
	hasStop  bool
}

// CallGraph is the package-level static call graph RunAnalyzers builds
// once per package and shares across analyzers via Pass.Graph.
type CallGraph struct {
	info  *types.Info
	nodes map[*types.Func]*CGNode
}

// Node returns fn's graph node, or nil for functions without a body in
// this package.
func (g *CallGraph) Node(fn *types.Func) *CGNode {
	if g == nil || fn == nil {
		return nil
	}
	return g.nodes[fn]
}

// MayBlock reports whether fn contains or reaches a blocking
// operation. Unresolvable calls contribute nothing, so false means
// "provably has no package-local blocking op", not "never blocks".
func (g *CallGraph) MayBlock(fn *types.Func) bool {
	n := g.Node(fn)
	return n != nil && n.mayBlock
}

// HasStopSignal reports whether fn contains or reaches a goroutine
// stop signal (channel op, select, ctx.Done/Err, WaitGroup.Done).
func (g *CallGraph) HasStopSignal(fn *types.Func) bool {
	n := g.Node(fn)
	return n != nil && n.hasStop
}

// BodyHasStopSignal reports whether a function body (typically a go'd
// closure literal) contains a stop signal directly or through calls
// into this package's functions.
func (g *CallGraph) BodyHasStopSignal(body ast.Node) bool {
	if bodyFact(g.info, body, stopFact) {
		return true
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if fn := StaticCallee(g.info, call); fn != nil && g.HasStopSignal(fn) {
				found = true
			}
		}
		return true
	})
	return found
}

// StaticCallee resolves a call expression to the *types.Func it
// statically names (plain or method call), or nil for calls through
// function values, interfaces, or type conversions.
func StaticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// BuildCallGraph constructs the package call graph and computes the
// transitive facts.
func BuildCallGraph(lp *LoadedPackage) *CallGraph {
	g := &CallGraph{info: lp.Info, nodes: make(map[*types.Func]*CGNode)}
	var decls []*ast.FuncDecl
	for _, f := range lp.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := lp.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			g.nodes[fn] = &CGNode{Fn: fn, Decl: fd}
			decls = append(decls, fd)
		}
	}
	for _, fd := range decls {
		fn := lp.Info.Defs[fd.Name].(*types.Func)
		g.analyzeBody(g.nodes[fn], fd.Body)
	}
	g.propagate()
	return g
}

// analyzeBody records node's synchronous callees and direct facts.
// Subtrees under `go` run on another goroutine: their calls are not
// synchronous edges, and their blocking ops do not make the spawner
// blocking.
func (g *CallGraph) analyzeBody(node *CGNode, body *ast.BlockStmt) {
	seen := make(map[*types.Func]bool)
	var walk func(n ast.Node)
	walk = func(root ast.Node) {
		ast.Inspect(root, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				// The go'd call's *arguments* evaluate synchronously on
				// the spawner; the function itself does not.
				for _, arg := range n.Call.Args {
					walk(arg)
				}
				return false
			case *ast.SelectStmt:
				// The select is judged as a whole (blocking unless it has
				// a default); the comm ops inside its clauses are part of
				// that judgement, not independent blocking ops.
				if nodeFact(g.info, n, blockFact) {
					node.blocksDirect = true
				}
				node.stopDirect = true
				for _, c := range n.Body.List {
					if cc, ok := c.(*ast.CommClause); ok {
						for _, s := range cc.Body {
							walk(s)
						}
					}
				}
				return false
			case *ast.CallExpr:
				if fn := StaticCallee(g.info, n); fn != nil && g.nodes[fn] != nil && !seen[fn] {
					seen[fn] = true
					node.Callees = append(node.Callees, fn)
				}
			}
			if nodeFact(g.info, n, blockFact) {
				node.blocksDirect = true
			}
			if nodeFact(g.info, n, stopFact) {
				node.stopDirect = true
			}
			return true
		})
	}
	walk(body)
	// Stop signals are judged over the whole body, go'd subtrees
	// included: a spawner that hands its child a done channel still
	// "contains" the signal textually, and goroleak judges each go
	// statement's own body separately anyway.
	if !node.stopDirect && bodyFact(g.info, body, stopFact) {
		node.stopDirect = true
	}
}

// propagate computes the transitive facts by fixpoint over the static
// edges. The graph is small (one package), so the simple iteration is
// plenty.
func (g *CallGraph) propagate() {
	for changed := true; changed; {
		changed = false
		for _, n := range g.nodes {
			if !n.mayBlock && n.blocksDirect {
				n.mayBlock = true
				changed = true
			}
			if !n.hasStop && n.stopDirect {
				n.hasStop = true
				changed = true
			}
			for _, callee := range n.Callees {
				c := g.nodes[callee]
				if c == nil {
					continue
				}
				if c.mayBlock && !n.mayBlock {
					n.mayBlock = true
					changed = true
				}
				if c.hasStop && !n.hasStop {
					n.hasStop = true
					changed = true
				}
			}
		}
	}
}

// fact selects which single-node property nodeFact tests.
type fact int

const (
	// blockFact: the node is a blocking operation.
	blockFact fact = iota
	// stopFact: the node is a goroutine stop signal.
	stopFact
)

// nodeFact reports whether one AST node carries the fact.
func nodeFact(info *types.Info, n ast.Node, f fact) bool {
	switch n := n.(type) {
	case *ast.SendStmt:
		return true
	case *ast.UnaryExpr:
		return n.Op == token.ARROW
	case *ast.SelectStmt:
		if f == stopFact {
			return true
		}
		// A select with a default clause never blocks.
		for _, c := range n.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				return false
			}
		}
		return true
	case *ast.RangeStmt:
		if t := info.TypeOf(n.X); t != nil {
			if _, ok := t.Underlying().(*types.Chan); ok {
				return true
			}
		}
		return false
	case *ast.CallExpr:
		if f == stopFact {
			if id, ok := Unparen(n.Fun).(*ast.Ident); ok && id.Name == "close" {
				if _, ok := info.Uses[id].(*types.Builtin); ok {
					return true
				}
			}
			return IsContextDoneOrErr(info, n) || IsMethodOf(info, n, "sync", "WaitGroup", "Done")
		}
		return IsMethodOf(info, n, "sync", "WaitGroup", "Wait") ||
			IsMethodOf(info, n, "sync", "Cond", "Wait") ||
			IsPkgFunc(info, n, "time", "Sleep") ||
			isHTTPRoundTrip(info, n)
	}
	return false
}

// bodyFact reports whether any node under root carries the fact.
func bodyFact(info *types.Info, root ast.Node, f fact) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if found {
			return false
		}
		if nodeFact(info, n, f) {
			found = true
			return false
		}
		return true
	})
	return found
}

// IsContextDoneOrErr reports whether call is ctx.Done() or ctx.Err()
// on a context.Context value.
func IsContextDoneOrErr(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Done" && sel.Sel.Name != "Err") {
		return false
	}
	t := info.TypeOf(sel.X)
	if t == nil {
		return false
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "context" && named.Obj().Name() == "Context"
}

// IsMethodOf reports whether call invokes the named method of the
// named type (through at most one pointer).
func IsMethodOf(info *types.Info, call *ast.CallExpr, pkgPath, typeName, method string) bool {
	sel, ok := Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != method {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == pkgPath && named.Obj().Name() == typeName
}

// IsPkgFunc reports whether call invokes the named package-level
// function.
func IsPkgFunc(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	fn := StaticCallee(info, call)
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == pkgPath &&
		fn.Name() == name && isPackageLevel(fn)
}

func isPackageLevel(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// isHTTPRoundTrip reports net/http calls that perform a network
// round-trip (client side) or block serving (server side).
func isHTTPRoundTrip(info *types.Info, call *ast.CallExpr) bool {
	fn := StaticCallee(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "net/http" {
		return false
	}
	switch fn.Name() {
	case "Get", "Post", "PostForm", "Head", "Do", "ListenAndServe", "ListenAndServeTLS", "Serve":
		return true
	}
	return false
}
