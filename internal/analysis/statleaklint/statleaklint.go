// Package statleaklint registers the eight-analyzer suite that
// mechanically enforces the evaluation engine's determinism,
// move-discipline (the design changes only through Apply/Revert), and
// concurrency-lifecycle invariants. cmd/statleaklint runs it;
// DESIGN.md §"Static analysis" documents each invariant.
package statleaklint

import (
	"repro/internal/analysis"
	"repro/internal/analysis/ctxclone"
	"repro/internal/analysis/ctxflow"
	"repro/internal/analysis/enginemutate"
	"repro/internal/analysis/errdrop"
	"repro/internal/analysis/floatcmp"
	"repro/internal/analysis/goroleak"
	"repro/internal/analysis/lockscope"
	"repro/internal/analysis/seededrand"
)

// Analyzers returns the full suite in stable order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		ctxclone.Analyzer,
		ctxflow.Analyzer,
		enginemutate.Analyzer,
		errdrop.Analyzer,
		floatcmp.Analyzer,
		goroleak.Analyzer,
		lockscope.Analyzer,
		seededrand.Analyzer,
	}
}
