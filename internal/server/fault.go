// Fault tolerance for the job path: panic isolation, per-job
// deadlines, and bounded retry with exponential backoff. One bad
// netlist — an invariant trip deep in linalg/ssta/stats, a wedged
// Monte Carlo run — must cost at most its own job, never a worker and
// never the daemon. The policy lives here; runJob (manager.go) only
// classifies outcomes.
package server

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime/debug"
	"time"
)

// FailPoints is the fault-injection seam of the job path — a plain
// struct on Config (nil in production, no build tags), modeled on the
// engine's injectable determinism seams: tests swap the boundary, the
// production code path stays identical. It is what makes the
// recovery/deadline/retry policy testable under -race (`make chaos`).
type FailPoints struct {
	// Execute intercepts a job at the execute boundary, on the job's
	// own attempt goroutine. Returning intercept=false falls through
	// to the real execute. Panicking inside the hook exercises the
	// worker's recovery path; blocking until ctx is done exercises
	// deadline abandonment; returning a *PanicError exercises the
	// retry loop.
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

// IsTransient classifies an execute failure for the retry policy:
// recovered panics and deadline expiries are transient (an internal
// invariant trip or an unluckily slow run may not repeat). Everything
// else — parse errors, infeasible configurations, bad parameters — is
// permanent: the same request reproduces it, so a retry only burns a
// worker.
func IsTransient(err error) bool {
	var pe *PanicError
	return errors.As(err, &pe) || errors.Is(err, context.DeadlineExceeded)
}

// execResult carries one attempt's outcome from the attempt goroutine
// back to the worker.
type execResult struct {
	out *Outcome
	err error
}

// executeGuarded runs one execute attempt on its own goroutine so the
// worker survives both failure modes the optimizers can exhibit:
// panics (recovered into *PanicError, counted by
// statleak_jobs_panicked_total) and hangs (when ctx expires the
// worker abandons the attempt and moves on; the goroutine's late
// result lands in the buffered channel and is discarded). An
// abandoned attempt keeps running until it observes ctx — everything
// it touches is job-local, so the worst case is wasted CPU, never
// shared-state corruption, and late progress callbacks are dropped by
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

// jobTimeout resolves the attempt's wall-clock budget: the request's
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

// retryBackoff is the wait before re-running a job whose attempt'th
// run failed: base·2^(attempt−1) capped at max, scaled by ±15% jitter
// derived deterministically from the job ID and attempt (no RNG
// state, so the daemon stays replayable under the seededrand rule
// while a burst of same-shape failures still de-synchronizes).
func retryBackoff(base, max time.Duration, id string, attempt int) time.Duration {
	d := base
	for i := 1; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	h := fnv.New64a()
	h.Write([]byte(id))
	h.Write([]byte{byte(attempt)})
	jitter := 0.85 + 0.3*float64(h.Sum64()%1024)/1024
	return time.Duration(float64(d) * jitter)
}

// scheduleRetry re-enqueues job after its backoff. The wait runs on
// its own goroutine — tracked by retryWG so Shutdown observes it —
// and the worker that ran the failed attempt returns to the queue
// immediately instead of sleeping through the backoff.
func (m *Manager) scheduleRetry(job *Job, attempt int, lastErr string) {
	delay := retryBackoff(m.cfg.RetryBaseDelay, m.cfg.RetryMaxDelay, job.ID, attempt)
	m.retryWG.Add(1)
	go func() {
		defer m.retryWG.Done()
		t := time.NewTimer(delay)
		defer t.Stop()
		select {
		case <-t.C:
		case <-m.retryStop:
			m.failPendingRetry(job, lastErr+" (shut down before retry)")
			return
		}
		job.mu.Lock()
		pending := job.state == StatePending
		job.mu.Unlock()
		if !pending { // cancelled during the backoff wait
			return
		}
		m.mu.Lock()
		if m.closed {
			m.mu.Unlock()
			m.failPendingRetry(job, lastErr+" (shut down before retry)")
			return
		}
		select {
		case m.queue <- job:
			m.mu.Unlock()
			metQueueDepth.Set(float64(len(m.queue)))
			m.log.Info("job re-enqueued for retry", "id", job.ID, "attempt", attempt+1, "backoff", delay)
		default:
			m.mu.Unlock()
			m.failPendingRetry(job, lastErr+" (retry dropped: queue full)")
		}
	}()
}

// failPendingRetry finalizes a retry-waiting job that can no longer
// be re-run. No-op if the job already reached a terminal state (e.g.
// cancelled during the wait).
func (m *Manager) failPendingRetry(job *Job, msg string) {
	now := time.Now()
	job.mu.Lock()
	if job.state != StatePending {
		job.mu.Unlock()
		return
	}
	job.state = StateFailed
	job.errMsg = msg
	job.finished = now
	job.expires = now.Add(m.cfg.ResultTTL)
	job.mu.Unlock()
	metJobsFinished.With(string(StateFailed)).Inc()
	m.log.Warn("job failed", "id", job.ID, "err", msg)
}
