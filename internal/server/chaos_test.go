// Chaos suite: fault injection through server.FailPoints, run under
// -race by `make chaos` (and the ordinary test/race targets). Each
// test drives one failure mode the daemon must survive: a panicking or
// failing execute, a hung execute vs the per-job deadline, and the API
// lifecycle races around them (janitor eviction during DELETE,
// concurrent Shutdown).
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/obs"
	"repro/internal/scenario"
)

// waitJob polls a job directly (no HTTP) until pred holds.
func waitJob(t *testing.T, job *Job, timeout time.Duration, pred func(Status) bool) Status {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st := job.status()
		if pred(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s: condition not reached, last %+v", job.ID, st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// hangByName returns an Execute failpoint that blocks jobs with the
// given name until their context is done (a wedged run that does
// honor cancellation — the worker abandons it at the deadline either
// way) and passes everything else through to the real execute.
func hangByName(name string) func(context.Context, *Job) (*Outcome, error, bool) {
	return func(ctx context.Context, job *Job) (*Outcome, error, bool) {
		if job.Req.Name != name {
			return nil, nil, false
		}
		<-ctx.Done()
		return nil, ctx.Err(), true
	}
}

// TestChaosPanicIsolation proves one poisoned job cannot take the
// daemon down: the panic is recovered into a failed status carrying
// the panic value and stack, the panic counter increments, and the
// same manager keeps serving — the next submission runs to done and
// /healthz stays 200. An error execute returns and a real parse
// failure end failed with their own text, and no failed job runs
// twice.
func TestChaosPanicIsolation(t *testing.T) {
	var (
		mu    sync.Mutex
		calls = make(map[string]int) // execute calls by job name
	)
	fp := &FailPoints{
		Execute: func(ctx context.Context, job *Job) (*Outcome, error, bool) {
			mu.Lock()
			calls[job.Req.Name]++
			mu.Unlock()
			switch job.Req.Name {
			case "boom":
				panic("invariant violated: poisoned netlist")
			case "bad":
				return nil, errors.New("unparseable blob"), true
			}
			return nil, nil, false
		},
	}
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8, FailPoints: fp})
	before := obs.Default.Values()["statleak_jobs_panicked_total"]

	st := submitJob(t, ts, Request{Netlist: bench.C17, Name: "boom", Optimizer: "deterministic"})
	final := pollUntil(t, ts, st.ID, 30*time.Second, func(s Status) bool { return s.State.Terminal() })
	if final.State != StateFailed {
		t.Fatalf("panicked job ended %q, want failed", final.State)
	}
	if !strings.Contains(final.Error, "panic: invariant violated: poisoned netlist") {
		t.Errorf("errMsg missing the panic value: %q", final.Error)
	}
	if !strings.Contains(final.Error, "goroutine") {
		t.Errorf("errMsg missing the stack trace: %q", final.Error)
	}
	if got := obs.Default.Values()["statleak_jobs_panicked_total"]; got != before+1 {
		t.Errorf("statleak_jobs_panicked_total = %g, want %g", got, before+1)
	}

	// An error execute returns is the failed job's message verbatim.
	bad := submitJob(t, ts, Request{Netlist: bench.C17, Name: "bad", Optimizer: "deterministic"})
	if f := pollUntil(t, ts, bad.ID, 30*time.Second, func(s Status) bool { return s.State.Terminal() }); f.State != StateFailed || f.Error != "unparseable blob" {
		t.Errorf("erroring job ended %q (err %q), want failed/unparseable blob", f.State, f.Error)
	}

	// A netlist the parser rejects fails with the parser's message.
	const garbage = "THIS IS ( NOT A NETLIST"
	_, parseErr := bench.ParseString("garbage", garbage)
	if parseErr == nil {
		t.Fatal("the parser accepted the garbage netlist")
	}
	gst := submitJob(t, ts, Request{Netlist: garbage, Name: "garbage"})
	if f := pollUntil(t, ts, gst.ID, 30*time.Second, func(s Status) bool { return s.State.Terminal() }); f.State != StateFailed || f.Error != parseErr.Error() {
		t.Errorf("garbage netlist ended %q (err %q), want failed/%q", f.State, f.Error, parseErr)
	}

	// The worker survived: the daemon still reports healthy and the
	// next job on the same manager completes.
	if code, body := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Errorf("healthz after panic: %d %s", code, body)
	}
	st2 := submitJob(t, ts, Request{Netlist: bench.C17, Name: "ok", Optimizer: "deterministic"})
	if f2 := pollUntil(t, ts, st2.ID, time.Minute, func(s Status) bool { return s.State.Terminal() }); f2.State != StateDone {
		t.Fatalf("job after panic ended %q (err %q), want done", f2.State, f2.Error)
	}

	// A failed job is not run again: a re-run would fail the same way.
	mu.Lock()
	defer mu.Unlock()
	for _, name := range []string{"boom", "bad", "garbage"} {
		if calls[name] != 1 {
			t.Errorf("execute ran %d times for job %q, want 1", calls[name], name)
		}
	}
}

// TestChaosDeadlineKillsHungJob proves timeout_sec frees the worker
// from a hung execute: the job fails with the distinct "deadline
// exceeded" outcome close to its budget, and the worker immediately
// serves the next job.
func TestChaosDeadlineKillsHungJob(t *testing.T) {
	var hangs atomic.Int32 // execute calls for the hung job
	hang := hangByName("hang")
	fp := &FailPoints{Execute: func(ctx context.Context, job *Job) (*Outcome, error, bool) {
		if job.Req.Name == "hang" {
			hangs.Add(1)
		}
		return hang(ctx, job)
	}}
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8, FailPoints: fp})

	st := submitJob(t, ts, Request{Netlist: bench.C17, Name: "hang", Optimizer: "deterministic", TimeoutSec: 0.3})
	final := pollUntil(t, ts, st.ID, 30*time.Second, func(s Status) bool { return s.State.Terminal() })
	if final.State != StateFailed || final.Error != "deadline exceeded" {
		t.Fatalf("hung job ended %q (err %q), want failed/deadline exceeded", final.State, final.Error)
	}
	if final.Started == nil || final.Finished == nil {
		t.Fatalf("missing timestamps: %+v", final)
	}
	elapsed := final.Finished.Sub(*final.Started)
	if elapsed < 250*time.Millisecond || elapsed > 10*time.Second {
		t.Errorf("deadline fired after %v, want ≈300ms", elapsed)
	}

	st2 := submitJob(t, ts, Request{Netlist: bench.C17, Name: "ok", Optimizer: "deterministic"})
	if f2 := pollUntil(t, ts, st2.ID, time.Minute, func(s Status) bool { return s.State.Terminal() }); f2.State != StateDone {
		t.Fatalf("job after hang ended %q (err %q), want done", f2.State, f2.Error)
	}
	// The expired job is not run again: the deadline would recur.
	if n := hangs.Load(); n != 1 {
		t.Errorf("execute ran %d times for the expired job, want 1", n)
	}
}

// TestChaosServerTimeoutCap proves Config.MaxJobTimeout caps a
// request that asks for far more than the server allows.
func TestChaosServerTimeoutCap(t *testing.T) {
	fp := &FailPoints{Execute: hangByName("hang")}
	m := NewManager(Config{Workers: 1, MaxJobTimeout: 300 * time.Millisecond, FailPoints: fp})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = m.Shutdown(ctx)
	}()

	job, _, err := m.submit(Request{Netlist: bench.C17, Name: "hang", Optimizer: "deterministic", TimeoutSec: 3600})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	final := waitJob(t, job, 10*time.Second, func(s Status) bool { return s.State.Terminal() })
	if final.State != StateFailed || final.Error != "deadline exceeded" {
		t.Fatalf("capped job ended %q (err %q), want failed/deadline exceeded", final.State, final.Error)
	}
	if elapsed := final.Finished.Sub(*final.Started); elapsed > 5*time.Second {
		t.Errorf("server cap did not bound the run: %v", elapsed)
	}
}

// TestChaosCancelEvictionRace is the regression test for the DELETE
// handler nil-deref: the janitor (simulated by the AfterCancel
// failpoint) evicts the job between Manager.Cancel and the response
// being written. The handler must answer from Cancel's own snapshot —
// on the pre-fix code this request crashed the connection.
func TestChaosCancelEvictionRace(t *testing.T) {
	var (
		m  *Manager
		ts *httptest.Server
	)
	fp := &FailPoints{
		Execute: hangByName("hang"),
		AfterCancel: func(id string) {
			m.mu.Lock()
			delete(m.jobs, id)
			m.mu.Unlock()
		},
	}
	m, ts = newTestServer(t, Config{Workers: 1, QueueDepth: 8, FailPoints: fp})

	// Occupy the only worker so the victim job stays pending.
	blocker := submitJob(t, ts, Request{Netlist: bench.C17, Name: "hang"})
	pollUntil(t, ts, blocker.ID, 30*time.Second, func(s Status) bool { return s.State == StateRunning })
	victim := submitJob(t, ts, Request{Netlist: bench.C17, Name: "victim"})

	code, body := doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+victim.ID, nil)
	if code != http.StatusAccepted {
		t.Fatalf("DELETE with concurrent eviction: %d %s", code, body)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil || st.ID != victim.ID || st.State != StateCancelled {
		t.Fatalf("DELETE response should be the cancel snapshot: %s (err %v)", body, err)
	}
	// The job really is gone, and the daemon survived the race.
	if code, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+victim.ID, nil); code != http.StatusNotFound {
		t.Errorf("evicted job GET: got %d, want 404", code)
	}
	if code, _ := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Errorf("healthz after eviction race: %d", code)
	}
	// Unblock the worker so teardown drains fast.
	if code, _ := doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+blocker.ID, nil); code != http.StatusAccepted {
		t.Errorf("cancel blocker: %d", code)
	}
}

// TestChaosPendingTimestampsOmitted is the regression test for the
// time.Time/omitempty no-op: a job that has not started must not
// serialize a zero "started"/"finished", and a running one must not
// serialize "finished".
func TestChaosPendingTimestampsOmitted(t *testing.T) {
	fp := &FailPoints{Execute: hangByName("hang")}
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8, FailPoints: fp})

	blocker := submitJob(t, ts, Request{Netlist: bench.C17, Name: "hang"})
	pollUntil(t, ts, blocker.ID, 30*time.Second, func(s Status) bool { return s.State == StateRunning })

	code, body := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", Request{Netlist: bench.C17, Name: "queued"})
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	for _, field := range []string{`"started"`, `"finished"`, `"0001-01-01`} {
		if bytes.Contains(body, []byte(field)) {
			t.Errorf("pending status leaks %s: %s", field, body)
		}
	}

	code, body = doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+blocker.ID, nil)
	if code != http.StatusOK || !bytes.Contains(body, []byte(`"started"`)) {
		t.Errorf("running status should carry started: %d %s", code, body)
	}
	if bytes.Contains(body, []byte(`"finished"`)) {
		t.Errorf("running status leaks finished: %s", body)
	}

	if code, _ := doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+blocker.ID, nil); code != http.StatusAccepted {
		t.Errorf("cancel blocker: %d", code)
	}
}

// TestChaosDoubleShutdown is the regression test for the re-entrant
// Shutdown: a second caller used to see closed == true and return nil
// immediately while the first was still draining. It must instead
// block until quiescence.
func TestChaosDoubleShutdown(t *testing.T) {
	fp := &FailPoints{Execute: hangByName("hang")}
	m := NewManager(Config{Workers: 1, FailPoints: fp})

	job, _, err := m.submit(Request{Netlist: bench.C17, Name: "hang"})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitJob(t, job, 30*time.Second, func(s Status) bool { return s.State == StateRunning })

	firstErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 400*time.Millisecond)
		defer cancel()
		firstErr <- m.Shutdown(ctx)
	}()
	// Wait until the first Shutdown has actually begun the drain.
	deadline := time.Now().Add(5 * time.Second)
	for {
		m.mu.Lock()
		closed := m.closed
		m.mu.Unlock()
		if closed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first Shutdown never started")
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
	// The second caller must not return before the manager is
	// quiescent: the hung job has been force-cancelled by then.
	if st := job.status(); !st.State.Terminal() {
		t.Fatalf("second Shutdown returned before quiescence: job still %q", st.State)
	}
	if err := <-firstErr; err == nil {
		t.Error("first Shutdown should report its missed drain deadline")
	}
}

// TestChaosScenarioCancelMidRound drives the corner-family fault
// path: a 4-corner (2 temperatures × 2 voltage corners) statistical
// job is cancelled mid-round, and the engine Family must drain
// cleanly — the job lands cancelled (not failed, not hung), the
// daemon stays healthy, and a follow-up scenario job on the same
// worker pool runs to done with a full per-corner scoreboard.
func TestChaosScenarioCancelMidRound(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})

	four := &scenario.Spec{Temps: []float64{0, 110}, Corners: []string{"vl", "vh"}}
	st := submitJob(t, ts, Request{Circuit: "s1908", Optimizer: "statistical", Scenario: four})

	// Mid-round means the optimizer has committed at least one move,
	// so every corner context holds incremental state the drain must
	// unwind — not a pending job that never built a Family.
	pollUntil(t, ts, st.ID, time.Minute, func(s Status) bool {
		return s.State == StateRunning && s.Progress.Moves > 0
	})

	cancelledAt := time.Now()
	if code, _ := doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil); code != http.StatusAccepted {
		t.Fatalf("cancel: got %d, want 202", code)
	}
	final := pollUntil(t, ts, st.ID, 30*time.Second, func(s Status) bool { return s.State.Terminal() })
	if final.State != StateCancelled {
		t.Fatalf("4-corner job ended %q (err %q), want cancelled", final.State, final.Error)
	}
	if waited := time.Since(cancelledAt); waited > 20*time.Second {
		t.Errorf("family drain took %v; the move-granular ctx checks should stop far faster", waited)
	}
	if code, body := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("daemon unhealthy after drain: %d %s", code, body)
	}

	// The worker that drained the cancelled Family must be reusable.
	next := submitJob(t, ts, Request{Circuit: "s432", Optimizer: "statistical", Scenario: four, MaxMoves: 16})
	done := pollUntil(t, ts, next.ID, 2*time.Minute, func(s Status) bool { return s.State.Terminal() })
	if done.State != StateDone {
		t.Fatalf("follow-up scenario job ended %q (err %q), want done", done.State, done.Error)
	}
	code, body := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+next.ID+"/result", nil)
	if code != http.StatusOK {
		t.Fatalf("result: got %d, body %s", code, body)
	}
	var out Outcome
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("result decode: %v", err)
	}
	if len(out.Corners) != 4 {
		t.Fatalf("scoreboard has %d corners, want 4: %+v", len(out.Corners), out.Corners)
	}
}
