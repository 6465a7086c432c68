// Package journalgen defines the statleaklint analyzer that polices
// the generation-stamped journal machinery from PR 4: the O(1)-retire
// round journals in leakage.Accumulator / ssta.Incremental, and the
// ownership of engine-level replay state (Engine.log/gen) should a
// committed-move replay log return — the engine carries none today.
//
// The net-zero argument (an exact scoring round leaves the caches
// bitwise as it found them) rests on two disciplines:
//
//  1. Journal rounds are generation-ordered: every StartJournal is
//     retired by a RestoreJournal in the same function, so a round
//     can never leak into the next one's generation stamp. (Nesting
//     is unsupported by construction — a second Start forgets the
//     first — so an unpaired Start silently corrupts the restore
//     path of whoever starts next.)
//  2. Journal state is touched only by its owners: the fields backing
//     the journals (Accumulator.journal/spare,
//     Incremental.journal/spare, and Engine.log/gen if present) are
//     owned by the files that implement recording and restore; any
//     other file reading or writing them bypasses the generation
//     ordering that makes retirement O(1).
package journalgen

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "journalgen",
	Doc: "journal rounds must be generation-ordered (StartJournal paired with " +
		"RestoreJournal per function) and journal state touched only in its owner files",
	Run: run,
}

// typeKey identifies a named type by package path and name.
type typeKey struct{ path, name string }

// JournalTypes are the types whose StartJournal/RestoreJournal pairs
// implement generation-stamped rounds.
var JournalTypes = map[typeKey]bool{
	{"repro/internal/leakage", "Accumulator"}: true,
	{"repro/internal/ssta", "Incremental"}:    true,
}

// OwnerFiles maps a journal-state field to the file basenames allowed
// to touch it. Everything else in those packages must go through
// StartJournal/RestoreJournal (journals) or the owner file's accessors
// (an engine replay log and generation counter).
var OwnerFiles = map[typeKey]map[string][]string{
	{"repro/internal/leakage", "Accumulator"}: {
		"journal": {"journal.go", "leakage.go"},
		"spare":   {"journal.go"},
	},
	{"repro/internal/ssta", "Incremental"}: {
		"journal": {"journal.go", "incremental.go"},
		"spare":   {"journal.go"},
	},
	{"repro/internal/engine", "Engine"}: {
		"log": {"worker.go", "engine.go"},
		"gen": {"worker.go", "engine.go"},
	},
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		checkFieldOwnership(pass, f)
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkPairing(pass, fd)
		}
	}
	return nil
}

// journalCall reports whether call invokes method (StartJournal or
// RestoreJournal) on one of the journal-carrying types, returning the
// journal type as the pairing key. Pairing is judged per type, not per
// receiver expression: the same journal may legitimately be started
// and restored through different paths to one context (inc vs wc.inc),
// but a round that starts an Accumulator journal must retire an
// Accumulator journal before the function ends.
func journalCall(pass *analysis.Pass, call *ast.CallExpr, method string) (typeKey, bool) {
	sel, ok := analysis.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != method {
		return typeKey{}, false
	}
	t := pass.TypesInfo.TypeOf(sel.X)
	if t == nil {
		return typeKey{}, false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return typeKey{}, false
	}
	k := typeKey{named.Obj().Pkg().Path(), named.Obj().Name()}
	if !JournalTypes[k] {
		return typeKey{}, false
	}
	return k, true
}

// checkPairing enforces generation ordering within one function: every
// journal type that is Started must be Restored, and a Restore without
// a Start in the same function is a cross-round retirement the
// generation stamps cannot account for. The journal implementations
// themselves (methods of the journal types) are exempt — they are the
// mechanism, not a round.
func checkPairing(pass *analysis.Pass, fd *ast.FuncDecl) {
	if fd.Recv != nil {
		t := pass.TypesInfo.TypeOf(fd.Recv.List[0].Type)
		if t != nil {
			if p, ok := t.Underlying().(*types.Pointer); ok {
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil {
				if JournalTypes[typeKey{named.Obj().Pkg().Path(), named.Obj().Name()}] {
					return
				}
			}
		}
	}
	starts := map[typeKey]ast.Node{}
	restores := map[typeKey]ast.Node{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if key, ok := journalCall(pass, call, "StartJournal"); ok {
			if starts[key] == nil {
				starts[key] = call
			}
		}
		if key, ok := journalCall(pass, call, "RestoreJournal"); ok {
			if restores[key] == nil {
				restores[key] = call
			}
		}
		return true
	})
	for key, site := range starts {
		if restores[key] == nil {
			pass.Reportf(site.Pos(),
				"StartJournal on %s without a RestoreJournal in %s: journal rounds must be generation-ordered (start, score, restore) within one function",
				key.name, fd.Name.Name)
		}
	}
	for key, site := range restores {
		if starts[key] == nil {
			pass.Reportf(site.Pos(),
				"RestoreJournal on %s without a StartJournal in %s: retiring another round's journal breaks the generation stamps",
				key.name, fd.Name.Name)
		}
	}
}

// checkFieldOwnership flags journal-state field accesses outside the
// owning files.
func checkFieldOwnership(pass *analysis.Pass, f *ast.File) {
	base := baseName(pass.Fset.Position(f.Pos()).Filename)
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		t := pass.TypesInfo.TypeOf(sel.X)
		if t == nil {
			return true
		}
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t = p.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok || named.Obj().Pkg() == nil {
			return true
		}
		fields := OwnerFiles[typeKey{named.Obj().Pkg().Path(), named.Obj().Name()}]
		if fields == nil {
			return true
		}
		allowed, tracked := fields[sel.Sel.Name]
		if !tracked {
			return true
		}
		// Only field accesses count; a method of the same name resolves
		// to a *types.Func.
		if _, isField := pass.TypesInfo.Uses[sel.Sel].(*types.Var); !isField {
			return true
		}
		for _, a := range allowed {
			if a == base {
				return true
			}
		}
		pass.Reportf(sel.Pos(),
			"journal state %s.%s touched outside its owner files (%v): journal reads and writes belong to the replay path",
			named.Obj().Name(), sel.Sel.Name, allowed)
		return true
	})
}

func baseName(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' || path[i] == '\\' {
			return path[i+1:]
		}
	}
	return path
}
