// Package seededrand defines the statleaklint analyzer that keeps
// every stochastic path replayable from a configuration seed.
//
// The Monte Carlo validation (experiments T3/T4), the dominant-state
// leakage sampler, and the annealer are all comparisons between runs;
// the paper's percentile claims are only checkable if a (config,
// seed) pair reproduces the exact sample stream. Two constructs break
// that silently: the process-global math/rand stream (shared,
// order-dependent, seeded from entropy since Go 1.20) and sources
// seeded from wall-clock time. The analyzer forbids both in non-test
// code: it reports the global stream, and entropy in the seed
// arguments of the package-level source constructors and of the Seed
// methods of math/rand and math/rand/v2 types and of stats.Source,
// the repository's fast-seeding copy of math/rand's generator. The
// approved idioms are rand.New(rand.NewSource(seed)) with the seed
// threaded from a Config value, and the per-die idiom of the Monte
// Carlo and ABB samplers: one worker-owned
// rng := rand.New(stats.NewSource(cfg.Seed)) re-seeded per die with
// rng.Seed(stats.StreamSeed(cfg.Seed, i)), which replays the stream
// of a fresh math/rand source without allocating one.
package seededrand

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "seededrand",
	Doc: "forbid the global math/rand stream and time-derived RNG seeds " +
		"so every stochastic path replays from a config seed",
	Run: run,
}

// globalStream lists the math/rand (and /v2) package-level functions
// that draw from the shared, irreproducible process stream.
var globalStream = map[string]bool{
	"Int": true, "Intn": true, "IntN": true, "Int31": true, "Int31n": true,
	"Int32": true, "Int32N": true, "Int63": true, "Int63n": true,
	"Int64": true, "Int64N": true, "Uint": true, "UintN": true,
	"Uint32": true, "Uint32N": true, "Uint64": true, "Uint64N": true,
	"Float32": true, "Float64": true, "NormFloat64": true,
	"ExpFloat64": true, "Perm": true, "Shuffle": true, "Read": true,
	"Seed": true, "N": true,
}

// entropyPkgs are packages whose calls inside a seed expression make
// the seed irreproducible.
var entropyPkgs = map[string]bool{
	"time":        true,
	"crypto/rand": true,
	"os":          true, // Getpid-style seeds
}

func isRandPath(path string) bool {
	return path == "math/rand" || path == "math/rand/v2"
}

// seedsPath reports whether path's source constructors and Seed
// methods take seeds: math/rand, math/rand/v2 and the package of
// stats.Source.
func seedsPath(path string) bool {
	return isRandPath(path) || path == "repro/internal/stats"
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				fn := pkgFunc(pass, n)
				if fn == nil || !isRandPath(fn.Pkg().Path()) {
					return true
				}
				if globalStream[fn.Name()] {
					pass.Reportf(n.Pos(), "use of global math/rand.%s: draw from a config-seeded *rand.Rand instead", fn.Name())
				}
			case *ast.CallExpr:
				if !takesSeed(pass, analysis.Unparen(n.Fun)) {
					return true
				}
				for _, arg := range n.Args {
					if call := entropyCall(pass, arg); call != nil {
						pass.Reportf(call.Pos(), "RNG seed derived from %s: seeds must come from configuration so runs are replayable", callName(pass, call))
					}
				}
			}
			return true
		})
	}
	return nil
}

// takesSeed reports whether fun, the callee of a call, seeds a
// math/rand, math/rand/v2 or stats generator: a source constructor
// (NewSource, NewPCG, NewZipf) or a Seed method, such as
// (*rand.Rand).Seed, (*rand.PCG).Seed or (*stats.Source).Seed.
func takesSeed(pass *analysis.Pass, fun ast.Expr) bool {
	if fn := pkgFunc(pass, fun); fn != nil {
		switch fn.Name() {
		case "NewSource", "NewPCG", "NewZipf":
			return seedsPath(fn.Pkg().Path())
		}
		return false
	}
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	m, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	return ok && m.Pkg() != nil && m.Name() == "Seed" && seedsPath(m.Pkg().Path())
}

// pkgFunc resolves e to a package-level function (not a method); nil
// otherwise.
func pkgFunc(pass *analysis.Pass, e ast.Expr) *types.Func {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return nil
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return nil
	}
	return fn
}

// entropyCall returns a call to an entropy-source package found
// anywhere inside e, or nil.
func entropyCall(pass *analysis.Pass, e ast.Expr) *ast.CallExpr {
	var found *ast.CallExpr
	ast.Inspect(e, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := analysis.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if obj, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok && obj.Pkg() != nil && entropyPkgs[obj.Pkg().Path()] {
				found = call
				return false
			}
		}
		return true
	})
	return found
}

func callName(pass *analysis.Pass, call *ast.CallExpr) string {
	if sel, ok := analysis.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if obj, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok && obj.Pkg() != nil {
			return obj.Pkg().Path() + "." + obj.Name()
		}
	}
	return "an entropy source"
}
