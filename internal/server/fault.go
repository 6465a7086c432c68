// Fault tolerance for the job path: panic isolation and per-job
// deadlines. One bad netlist — an invariant trip deep in
// linalg/ssta/stats, a wedged Monte Carlo run — must cost at most its
// own job, never a worker and never the daemon. A job runs once: the
// flows are deterministic in their request, so re-running a failed job
// reproduces the failure. The policy lives here; runJob (manager.go)
// only classifies outcomes.
package server

import (
	"context"
	"fmt"
	"runtime/debug"
	"time"
)

// FailPoints is the fault-injection seam of the job path — a plain
// struct on Config (nil in production, no build tags), modeled on the
// engine's injectable determinism seams: tests swap the boundary, the
// production code path stays identical. It is what makes the
// recovery and deadline policy testable under -race (`make chaos`).
type FailPoints struct {
	// Execute intercepts a job at the execute boundary, on the job's
	// own execute goroutine. Returning intercept=false falls through
	// to the real execute. Panicking inside the hook exercises the
	// worker's recovery path; blocking until ctx is done exercises
	// deadline abandonment; returning an error exercises the failed
	// outcome.
	Execute func(ctx context.Context, job *Job) (out *Outcome, err error, intercept bool)
	// AfterCancel runs inside the DELETE handler after Manager.Cancel,
	// before the response is written — the window in which the janitor
	// may evict the job (see TestChaosCancelEvictionRace).
	AfterCancel func(id string)
}

// PanicError is what a panic recovered at the execute boundary is
// converted to. Error carries the panic value and a truncated stack;
// that string is what lands in the failed job's errMsg, so the
// /v1/jobs status shows where the invariant tripped.
type PanicError struct {
	Value string // fmt.Sprint of the recovered value
	Stack string // stack of the panicking goroutine, truncated
}

func (e *PanicError) Error() string { return "panic: " + e.Value + "\n" + e.Stack }

// panicStackLimit bounds the stack carried into errMsg: enough frames
// to locate the trip, small enough for a JSON status payload.
const panicStackLimit = 4 << 10

func newPanicError(v any) *PanicError {
	st := debug.Stack()
	if len(st) > panicStackLimit {
		st = append(st[:panicStackLimit:panicStackLimit], "\n... (stack truncated)"...)
	}
	return &PanicError{Value: fmt.Sprint(v), Stack: string(st)}
}

// execResult carries the job's outcome from its execute goroutine back
// to the worker.
type execResult struct {
	out *Outcome
	err error
}

// executeGuarded runs the job's execute on its own goroutine so the
// worker survives both failure modes the optimizers can exhibit:
// panics (recovered into *PanicError, counted by
// statleak_jobs_panicked_total) and hangs (when ctx expires the
// worker abandons the run and moves on; the goroutine's late result
// lands in the buffered channel and is discarded). An abandoned run
// keeps running until it observes ctx — everything it touches is
// job-local, so the worst case is wasted CPU, never shared-state
// corruption, and late progress callbacks are dropped by
// Job.observe's state guard.
func (m *Manager) executeGuarded(ctx context.Context, job *Job) (*Outcome, error) {
	ch := make(chan execResult, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				metJobsPanicked.Inc()
				m.log.Error("job panicked", "id", job.ID, "panic", fmt.Sprint(r))
				ch <- execResult{err: newPanicError(r)}
			}
		}()
		if fp := m.cfg.FailPoints; fp != nil && fp.Execute != nil {
			if out, err, intercept := fp.Execute(ctx, job); intercept {
				ch <- execResult{out: out, err: err}
				return
			}
		}
		out, err := execute(ctx, job, &m.models)
		ch <- execResult{out: out, err: err}
	}()
	select {
	case res := <-ch:
		return res.out, res.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// jobTimeout resolves the job's wall-clock budget: the request's
// timeout_sec capped by Config.MaxJobTimeout, which also supplies the
// default when the request carries none. 0 means no deadline.
func (m *Manager) jobTimeout(r *Request) time.Duration {
	limit := m.cfg.MaxJobTimeout
	req := time.Duration(r.TimeoutSec * float64(time.Second))
	switch {
	case req <= 0:
		return limit
	case limit > 0 && req > limit:
		return limit
	default:
		return req
	}
}
