// Fixture: worker goroutines touching shared evaluation state
// directly, next to the clone-path and immutable-context uses that
// are the approved patterns.
package a

import (
	"sync"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/leakage"
	"repro/internal/ssta"
)

// badFamilyWorker: a corner family is shared mutable state exactly like
// a single engine — per-corner caches, move logs, worker journals.
func badFamilyWorker(f *engine.Family, out []float64) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		out[0] = f.TotalLeak() // want `worker goroutine captures shared engine\.Family "f"`
	}()
	wg.Wait()
}

func badWorkers(d *core.Design, inc *ssta.Incremental, acc *leakage.Accumulator, out []float64) {
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		out[0] = float64(d.Vth[0]) // want `worker goroutine captures shared core\.Design "d"`
		inc.Update(0)              // want `worker goroutine captures shared ssta\.Incremental "inc"`
	}()
	go func() {
		defer wg.Done()
		use(d)             // want `worker goroutine captures shared core\.Design "d"`
		out[1] = acc.Quantile(0.5) // want `worker goroutine captures shared leakage\.Accumulator "acc"`
	}()
	wg.Wait()
}

func use(*core.Design) {}

func goodWorkers(d *core.Design, inc *ssta.Incremental, acc *leakage.Accumulator, out []float64) {
	// Snapshot mutable state before the fan-out: reads outside the
	// goroutine are the montecarlo pattern.
	sizes := make([]float64, len(d.Size))
	copy(sizes, d.Size)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Clone path: private copies bound to a cloned design.
		dc := d.Clone()
		ic := inc.CloneFor(dc)
		ac := acc.CloneFor(dc)
		ic.Update(0)
		ac.Update(0)
		// Immutable context reads are free.
		out[0] = sizes[0] + d.Lib.P.DffSetupPs + float64(d.Circuit.NumNodes())
	}()
	wg.Wait()
}
