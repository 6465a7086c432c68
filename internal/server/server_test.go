package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/fixture"
	"repro/internal/montecarlo"
	"repro/internal/opt"
	"repro/internal/yield"
)

func newTestServer(t *testing.T, cfg Config) (*Manager, *httptest.Server) {
	t.Helper()
	m := NewManager(cfg)
	ts := httptest.NewServer(Handler(m))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = m.Shutdown(ctx) // force-cancels leftovers; fine in teardown
	})
	return m, ts
}

func doJSON(t *testing.T, method, url string, body any) (int, []byte) {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatalf("new request: %v", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, buf.Bytes()
}

func submitJob(t *testing.T, ts *httptest.Server, req Request) Status {
	t.Helper()
	code, body := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", req)
	if code != http.StatusAccepted {
		t.Fatalf("submit: got %d, body %s", code, body)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("submit response: %v", err)
	}
	if st.ID == "" || st.State != StatePending {
		t.Fatalf("submit response: %+v", st)
	}
	return st
}

// pollUntil polls the status endpoint until pred holds or the
// deadline passes.
func pollUntil(t *testing.T, ts *httptest.Server, id string, timeout time.Duration, pred func(Status) bool) Status {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		code, body := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+id, nil)
		if code != http.StatusOK {
			t.Fatalf("status: got %d, body %s", code, body)
		}
		var st Status
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("status response: %v", err)
		}
		if pred(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s: condition not reached, last state %+v", id, st)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// c432Netlist renders the synthetic c432-scale suite circuit to bench
// text, exercising the submit-a-netlist path end to end.
func c432Netlist(t *testing.T) string {
	t.Helper()
	cfg, err := bench.SuiteConfig("s432")
	if err != nil {
		t.Fatalf("suite: %v", err)
	}
	c, err := bench.Generate(cfg)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	var buf bytes.Buffer
	if err := bench.Write(&buf, c); err != nil {
		t.Fatalf("write: %v", err)
	}
	return buf.String()
}

// TestJobLifecycle drives the full happy path over HTTP: submit a
// c432-scale netlist, poll to completion, fetch the result.
func TestJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8})

	st := submitJob(t, ts, Request{
		Netlist:   c432Netlist(t),
		Format:    "bench",
		Name:      "c432scale",
		Optimizer: "statistical",
		MCSamples: 300,
	})

	// Result is 409 while not done.
	if code, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+st.ID+"/result", nil); code != http.StatusConflict {
		t.Fatalf("premature result fetch: got %d, want 409", code)
	}

	final := pollUntil(t, ts, st.ID, 2*time.Minute, func(s Status) bool { return s.State.Terminal() })
	if final.State != StateDone {
		t.Fatalf("job ended %q (err %q), want done", final.State, final.Error)
	}
	if final.Progress.Moves == 0 {
		t.Errorf("no progress snapshots were published")
	}
	if final.Progress.BestLeakQNW <= 0 {
		t.Errorf("progress never reported the objective: %+v", final.Progress)
	}
	if final.Started == nil || final.Finished == nil || final.Finished.Before(*final.Started) {
		t.Errorf("bad timestamps: %+v", final)
	}
	// A job runs once, so its status carries no attempt count.
	code, body := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+st.ID, nil)
	if code != http.StatusOK || bytes.Contains(body, []byte(`"attempt"`)) {
		t.Errorf("finished status: %d %s, want 200 without an attempt key", code, body)
	}

	code, body = doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+st.ID+"/result", nil)
	if code != http.StatusOK {
		t.Fatalf("result: got %d, body %s", code, body)
	}
	var out Outcome
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("result decode: %v", err)
	}
	switch {
	case out.Optimizer != "statistical" || out.Circuit != "c432scale":
		t.Errorf("labels: %+v", out)
	case out.Gates == 0 || out.Moves == 0 || out.TmaxPs <= 0:
		t.Errorf("empty result: %+v", out)
	case out.LeakPctNW <= 0 || out.YieldAtTmax <= 0 || out.YieldAtTmax > 1:
		t.Errorf("bad statistical scoreboard: %+v", out)
	case out.MC == nil || out.MC.Samples != 300 || out.MC.TimingYield <= 0:
		t.Errorf("missing MC scoreboard: %+v", out.MC)
	}

	// The listing shows the job too.
	code, body = doJSON(t, http.MethodGet, ts.URL+"/v1/jobs", nil)
	if code != http.StatusOK || !bytes.Contains(body, []byte(st.ID)) {
		t.Errorf("listing: code %d, body %s", code, body)
	}
}

// TestDeterministicJobMatchesInProcess submits s432 as a bench netlist
// to the deterministic optimizer twice — the second job reuses the
// preset library and variation model the first one built — and
// requires each outcome, apart from the wall-clock runtime, to equal
// the in-process flow bit for bit on a design with its own library and
// variation model.
func TestDeterministicJobMatchesInProcess(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	req := Request{Netlist: c432Netlist(t), Format: "bench", Name: "s432",
		Optimizer: "deterministic", MCSamples: 200}
	want := inProcessDeterministic(t, req)
	for i := 0; i < 2; i++ {
		st := submitJob(t, ts, req)
		final := pollUntil(t, ts, st.ID, 2*time.Minute, func(s Status) bool { return s.State.Terminal() })
		if final.State != StateDone {
			t.Fatalf("job %d ended %q (err %q), want done", i+1, final.State, final.Error)
		}
		code, body := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+st.ID+"/result", nil)
		if code != http.StatusOK {
			t.Fatalf("result: got %d, body %s", code, body)
		}
		var got Outcome
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatalf("result decode: %v", err)
		}
		got.RuntimeSec = 0
		if !reflect.DeepEqual(got, want) {
			wb, _ := json.Marshal(want) // plain data: Marshal cannot fail
			t.Fatalf("job %d outcome differs from the in-process flow:\n daemon     %s\n in-process %s", i+1, body, wb)
		}
	}
}

// inProcessDeterministic computes req's outcome with the library calls
// the daemon documents: parse, bind to a fresh default library and
// variation model, Tmax = 1.3·Dmin, the deterministic optimizer, the
// statistical scoreboard, and a seed-1 Monte Carlo scoreboard.
func inProcessDeterministic(t *testing.T, req Request) Outcome {
	t.Helper()
	ctx := context.Background()
	c, err := bench.ParseString(req.Name, req.Netlist)
	if err != nil {
		t.Fatal(err)
	}
	env, err := fixture.DefaultEnv()
	if err != nil {
		t.Fatal(err)
	}
	d, err := core.NewDesign(c, env.Lib, env.Var)
	if err != nil {
		t.Fatal(err)
	}
	dmin, err := opt.MinimumDelayCtx(ctx, d.Clone())
	if err != nil {
		t.Fatal(err)
	}
	o := opt.DefaultOptions(1.3 * dmin)
	dr, err := opt.DeterministicCtx(ctx, d, o)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := opt.EvaluateStatisticalCtx(ctx, d, o)
	if err != nil {
		t.Fatal(err)
	}
	sr.Result = *dr
	mc, err := montecarlo.RunCtx(ctx, d, montecarlo.Config{Samples: req.MCSamples, Seed: 1, TmaxPs: o.TmaxPs})
	if err != nil {
		t.Fatal(err)
	}
	est, err := yield.TimingIS(mc, o.TmaxPs)
	if err != nil {
		t.Fatal(err)
	}
	return Outcome{
		Optimizer: req.Optimizer, Circuit: req.Name, Gates: d.Circuit.NumGates(), TmaxPs: o.TmaxPs,
		Feasible: sr.Feasible, Moves: sr.Moves, SizeUps: sr.SizeUps, VthSwaps: sr.VthSwaps, SizeDowns: sr.SizeDowns,
		YieldAtTmax: sr.YieldAtTmax, LeakMeanNW: sr.LeakMeanNW, LeakPctNW: sr.LeakPctNW,
		NominalLeakNW: sr.NominalLeakNW, DelayMeanPs: sr.DelayMeanPs, DelaySigmaPs: sr.DelaySigmaPs,
		NominalDelayPs: sr.NominalDelayPs,
		MC: &MCOutcome{
			Samples: req.MCSamples, TimingYield: est.Yield, LeakMeanNW: mc.LeakMean(),
			LeakQ99NW: mc.LeakQuantile(0.99), DelayMeanPs: mc.DelayMean(),
			DelayQEtaPs: mc.DelayQuantile(o.YieldTarget), YieldTargetQ: o.YieldTarget,
		},
	}
}

// TestCancelRunningJob submits a long annealing run, cancels it once
// running, and requires the early stop to be observed promptly.
func TestCancelRunningJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8})

	st := submitJob(t, ts, Request{Circuit: "s1355", Optimizer: "anneal"})
	pollUntil(t, ts, st.ID, time.Minute, func(s Status) bool { return s.State == StateRunning })

	cancelledAt := time.Now()
	code, _ := doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	if code != http.StatusAccepted {
		t.Fatalf("cancel: got %d, want 202", code)
	}
	final := pollUntil(t, ts, st.ID, 30*time.Second, func(s Status) bool { return s.State.Terminal() })
	if final.State != StateCancelled {
		t.Fatalf("job ended %q, want cancelled", final.State)
	}
	if waited := time.Since(cancelledAt); waited > 20*time.Second {
		t.Errorf("cancellation took %v; the move-granular ctx checks should stop far faster", waited)
	}
	if code, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+st.ID+"/result", nil); code != http.StatusConflict {
		t.Errorf("result of cancelled job: got %d, want 409", code)
	}
}

// TestQueueBackpressure fills the queue behind a slow job and checks
// 503 on overflow plus instant cancellation of a pending job, which
// stays cancelled and never starts once the worker drains it.
func TestQueueBackpressure(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})

	running := submitJob(t, ts, Request{Circuit: "s1355", Optimizer: "anneal"})
	pollUntil(t, ts, running.ID, time.Minute, func(s Status) bool { return s.State == StateRunning })
	pending := submitJob(t, ts, Request{Circuit: "s432"})

	code, body := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", Request{Circuit: "s432"})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("overflow submit: got %d (%s), want 503", code, body)
	}

	code, body = doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+pending.ID, nil)
	if code != http.StatusAccepted {
		t.Fatalf("cancel pending: got %d", code)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil || st.State != StateCancelled {
		t.Fatalf("pending job should cancel immediately: %s (err %v)", body, err)
	}
	if code, _ = doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+running.ID, nil); code != http.StatusAccepted {
		t.Fatalf("cancel running: got %d", code)
	}

	// The only worker drains the cancelled job from the queue, then
	// runs the next submission: once that is done, the worker has
	// passed the cancelled job by.
	deadline := time.Now().Add(30 * time.Second)
	for {
		var jl JobList
		code, body := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs", nil)
		if code != http.StatusOK || json.Unmarshal(body, &jl) != nil {
			t.Fatalf("list: %d %s", code, body)
		}
		if jl.QueueDepth == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the worker never drained the queue: %s", body)
		}
		time.Sleep(20 * time.Millisecond)
	}
	next := submitJob(t, ts, Request{Netlist: bench.C17, Name: "c17", Optimizer: "deterministic"})
	if f := pollUntil(t, ts, next.ID, time.Minute, func(s Status) bool { return s.State.Terminal() }); f.State != StateDone {
		t.Fatalf("job after the drain ended %q (err %q), want done", f.State, f.Error)
	}
	final := pollUntil(t, ts, pending.ID, time.Second, func(Status) bool { return true })
	if final.State != StateCancelled || final.Started != nil || final.Finished == nil {
		t.Fatalf("drained pending job: %+v, want cancelled, never started", final)
	}
}

var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+$`)

// TestMetricsEndpoint checks that the hot-path instrumentation from
// engine/ssta/montecarlo and the job manager all surface on /metrics
// in parseable Prometheus text format.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})

	st := submitJob(t, ts, Request{Circuit: "s432", Optimizer: "statistical", MCSamples: 200})
	if final := pollUntil(t, ts, st.ID, 2*time.Minute, func(s Status) bool { return s.State.Terminal() }); final.State != StateDone {
		t.Fatalf("job ended %q (err %q)", final.State, final.Error)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read: %v", err)
	}
	text := buf.String()

	// Every sample line must be "name[{labels}] value" with a numeric
	// value — the minimal contract any Prometheus scraper relies on.
	values := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Fatalf("unparseable exposition line: %q", line)
		}
		sp := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		values[line[:sp]] = v
	}

	mustPositive := []string{
		"statleak_engine_moves_applied_total",
		"statleak_engine_moves_scored_total",
		"statleak_ssta_incremental_updates_total",
		"statleak_ssta_incremental_nodes_retimed_total",
		"statleak_ssta_full_analyses_total",
		"statleak_mc_samples_total",
		"statleak_mc_samples_per_second",
		"statleak_jobs_submitted_total",
		`statleak_jobs_finished_total{state="done"}`,
		`statleak_opt_moves_accepted_total{optimizer="statistical"}`,
	}
	for _, name := range mustPositive {
		if v, ok := values[name]; !ok || v <= 0 {
			t.Errorf("metric %s: got (%g, present=%v), want > 0", name, v, ok)
		}
	}
	// Gauges and fault counters that legitimately sit at zero just
	// need to be exported.
	for _, name := range []string{
		"statleak_job_queue_depth",
		"statleak_jobs_running",
		"statleak_jobs_panicked_total",
	} {
		if _, ok := values[name]; !ok {
			t.Errorf("metric %s missing", name)
		}
	}
	// Histograms export the full bucket/sum/count family.
	for _, name := range []string{
		"statleak_job_run_seconds_count",
		`statleak_job_run_seconds_bucket{le="+Inf"}`,
		"statleak_engine_cache_refresh_seconds_count",
	} {
		if _, ok := values[name]; !ok {
			t.Errorf("metric %s missing", name)
		}
	}
}

// TestSubmitValidation exercises the 400/404 surfaces.
func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2})

	cases := []Request{
		{},                                     // no input
		{Circuit: "s432", Netlist: "INPUT(a)"}, // both inputs
		{Circuit: "s432", Optimizer: "gradient-descent"},
		{Circuit: "s432", Preset: "28nm"},
		{Circuit: "s432", Optimizer: "dual"}, // dual without budget
		{Circuit: "s432", TmaxFactor: 0.5},
		{Circuit: "s432", TimeoutSec: -1},
		{Circuit: "s432", YieldTarget: 1.5},
		{Circuit: "s432", LeakPercentile: 2},
		{Circuit: "s432", CornerSigma: 9},
		{Circuit: "s432", DisableVth: true, DisableSizing: true},
	}
	for i, req := range cases {
		if code, body := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", req); code != http.StatusBadRequest {
			t.Errorf("case %d: got %d (%s), want 400", i, code, body)
		}
	}

	// Unknown fields are rejected so typos don't silently default, and
	// neither does a field the API no longer has: a client that still
	// asks for retries learns that none will happen.
	for _, tc := range []struct{ body, field string }{
		{`{"circut":"s432"}`, "circut"},
		{`{"circuit":"s432","max_retries":1}`, "max_retries"},
	} {
		code, body := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", json.RawMessage(tc.body))
		if code != http.StatusBadRequest || !bytes.Contains(body, []byte(tc.field)) {
			t.Errorf("%s: got %d (%s), want 400 naming %s", tc.body, code, body, tc.field)
		}
	}

	for _, u := range []string{"/v1/jobs/job-999999", "/v1/jobs/job-999999/result"} {
		if code, _ := doJSON(t, http.MethodGet, ts.URL+u, nil); code != http.StatusNotFound {
			t.Errorf("GET %s: got %d, want 404", u, code)
		}
	}
	if code, _ := doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/job-999999", nil); code != http.StatusNotFound {
		t.Errorf("DELETE missing: got %d, want 404", code)
	}

	code, body := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil)
	if code != http.StatusOK || !bytes.Contains(body, []byte(`"ok"`)) {
		t.Errorf("healthz: %d %s", code, body)
	}
}

// TestShutdownDrains verifies a clean drain: a submitted job finishes
// and Shutdown returns nil within the deadline.
func TestShutdownDrains(t *testing.T) {
	m := NewManager(Config{Workers: 1, QueueDepth: 2})
	job, _, err := m.submit(Request{Netlist: bench.C17, Name: "c17", Optimizer: "deterministic"})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if st := job.status(); st.State != StateDone {
		t.Fatalf("after drain: state %q (err %q), want done", st.State, st.Error)
	}
	if _, _, err := m.submit(Request{Circuit: "s432"}); err == nil {
		t.Fatal("submit after shutdown should fail")
	}
}

// TestJanitorTinyResultTTL is the regression test for the janitor's
// tick: with a ResultTTL under 4 ns it asked time.NewTicker for a zero
// interval, which panicked on the janitor goroutine and killed the
// process. The tick now has a floor, so the job runs, the janitor
// evicts it, and the manager shuts down cleanly.
func TestJanitorTinyResultTTL(t *testing.T) {
	m := NewManager(Config{Workers: 1, QueueDepth: 2, ResultTTL: time.Nanosecond})
	job, _, err := m.submit(Request{Netlist: bench.C17, Name: "c17", Optimizer: "deterministic"})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if st := waitJob(t, job, time.Minute, func(s Status) bool { return s.State.Terminal() }); st.State != StateDone {
		t.Fatalf("job ended %q (err %q), want done", st.State, st.Error)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, ok := m.Get(job.ID); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the janitor never evicted the expired job")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestShutdownDeadlineCancels verifies the forced path: a shutdown
// deadline shorter than the job cancels it and returns the ctx error.
func TestShutdownDeadlineCancels(t *testing.T) {
	m := NewManager(Config{Workers: 1, QueueDepth: 2})
	job, _, err := m.submit(Request{Circuit: "s1355", Optimizer: "anneal"})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	deadline := time.Now().Add(time.Minute)
	for {
		if job.status().State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started: %+v", job.status())
		}
		time.Sleep(10 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if err := m.Shutdown(ctx); err == nil {
		t.Fatal("shutdown should report the missed deadline")
	}
	if st := job.status(); st.State != StateCancelled {
		t.Fatalf("after forced shutdown: state %q, want cancelled", st.State)
	}
}

// TestSubmitSnapshotIsPending pins the submit response's race fix: the
// status submit returns is taken before the job is enqueued, so it
// still reads pending after a worker has run the job to completion. A
// deduplicated resubmission reports the existing job's live state.
func TestSubmitSnapshotIsPending(t *testing.T) {
	m := NewManager(Config{Workers: 1, QueueDepth: 2})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = m.Shutdown(ctx)
	}()
	req := Request{Netlist: bench.C17, Name: "c17", Optimizer: "deterministic", IdempotencyKey: "snap"}
	job, st, err := m.submit(req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	deadline := time.Now().Add(time.Minute)
	for job.status().State != StateDone {
		if time.Now().After(deadline) {
			t.Fatalf("job never finished: %+v", job.status())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st.ID != job.ID || st.State != StatePending || st.Started != nil {
		t.Fatalf("submit snapshot %+v, want the pending job %s", st, job.ID)
	}

	again, st2, err := m.submit(req)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if again != job || st2.State != StateDone {
		t.Fatalf("resubmission: job %s state %q, want the existing job %s in state done", again.ID, st2.State, job.ID)
	}
}

// TestSequentialIDs pins the deterministic job-ID scheme.
func TestSequentialIDs(t *testing.T) {
	m := NewManager(Config{Workers: 1, QueueDepth: 4})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = m.Shutdown(ctx)
	}()
	for i := 1; i <= 2; i++ {
		j, _, err := m.submit(Request{Netlist: bench.C17, Optimizer: "deterministic"})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if want := fmt.Sprintf("job-%06d", i); j.ID != want {
			t.Fatalf("job %d: id %q, want %q", i, j.ID, want)
		}
	}
}
