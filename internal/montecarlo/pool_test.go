package montecarlo_test

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"

	"repro/internal/montecarlo"
)

// TestPoolSamplesIndependentOfWorkers: the die pool hands out indices
// in whatever order its workers claim them, but every die draws from
// its own stream and writes only its own slots, so plain, Latin-
// hypercube and importance-sampled runs return the same bits at every
// worker count.
func TestPoolSamplesIndependentOfWorkers(t *testing.T) {
	d := mixedDesign(t, "s432")
	shift := make([]float64, d.Var.NumPC)
	shift[0] = 2
	for _, base := range []montecarlo.Config{
		{Samples: 101, Seed: 9},
		{Samples: 101, Seed: 9, Sampling: montecarlo.LatinHypercube},
		{Samples: 101, Seed: 9, Sampling: montecarlo.ImportanceSampling, Shift: shift, MixtureLambda: 0.05},
	} {
		var want string
		for _, workers := range []int{1, 2, 3, 7} {
			cfg := base
			cfg.Workers = workers
			res, err := montecarlo.RunCtx(context.Background(), d, cfg)
			if err != nil {
				t.Fatalf("%v, %d workers: %v", base.Sampling, workers, err)
			}
			got := sampleHash(res)
			if workers == 1 {
				want = got
			} else if got != want {
				t.Errorf("%v: %d workers hash %s, 1 worker %s", base.Sampling, workers, got, want)
			}
		}
	}
}

// TestPoolCancelledBeforeRun: a run under an already cancelled context
// evaluates nothing and returns ctx.Err() with no result.
func TestPoolCancelledBeforeRun(t *testing.T) {
	d := mixedDesign(t, "s432")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 3} {
		res, err := montecarlo.RunCtx(ctx, d, montecarlo.Config{Samples: 200, Seed: 1, Workers: workers})
		if !errors.Is(err, context.Canceled) || res != nil {
			t.Errorf("%d workers: got (%v, %v), want (nil, context.Canceled)", workers, res, err)
		}
	}
}

// cancelAfter is a context that cancels itself on the n-th call of
// Err, which the die pool makes before each die: a run under it is
// cancelled after a known number of dies. Each Err call also records
// the goroutine count, and calls counts them; both are written under
// mu by whichever worker calls.
type cancelAfter struct {
	context.Context
	cancel     context.CancelFunc
	n          int
	mu         sync.Mutex
	calls      int
	goroutines int // most goroutines seen by an Err call
}

func newCancelAfter(n int) *cancelAfter {
	ctx, cancel := context.WithCancel(context.Background())
	return &cancelAfter{Context: ctx, cancel: cancel, n: n}
}

func (c *cancelAfter) Err() error {
	c.mu.Lock()
	c.calls++
	if c.calls == c.n {
		c.cancel()
	}
	c.goroutines = max(c.goroutines, runtime.NumGoroutine())
	c.mu.Unlock()
	return c.Context.Err()
}

// TestPoolCancelledMidRun: a run cancelled between dies returns
// ctx.Err() and no partial result, starts no die once every worker has
// seen the cancellation, and returns only after its workers have
// exited. The test reads the context's counters without its lock after
// RunCtx returns, so under -race a worker still calling Err after the
// return is reported. The pool is the calling goroutine plus
// Workers−1 goroutines: a one-worker run starts none.
func TestPoolCancelledMidRun(t *testing.T) {
	d := mixedDesign(t, "s432")
	for _, workers := range []int{1, 2, 3, 7} {
		ctx := newCancelAfter(20)
		base := runtime.NumGoroutine()
		res, err := montecarlo.RunCtx(ctx, d, montecarlo.Config{Samples: 400, Seed: 1, Workers: workers})
		ctx.cancel()
		if !errors.Is(err, context.Canceled) || res != nil {
			t.Errorf("%d workers: got (%v, %v), want (nil, context.Canceled)", workers, res, err)
		}
		// Each worker makes at most one Err call after the n-th: the
		// one that sees the cancellation.
		if ctx.calls > ctx.n+workers {
			t.Errorf("%d workers: %d Err calls, want at most %d", workers, ctx.calls, ctx.n+workers)
		}
		if extra := ctx.goroutines - base; extra > workers-1 {
			t.Errorf("%d workers: %d goroutines beyond the caller's during the run, want at most %d",
				workers, extra, workers-1)
		}
	}
}
