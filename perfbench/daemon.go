package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"reflect"
	"time"

	"repro/internal/bench"
	"repro/internal/logic"
	"repro/internal/montecarlo"
	"repro/internal/opt"
	"repro/internal/server"
	"repro/internal/verilog"
	"repro/internal/yield"
)

const (
	// pollInterval is the client's status polling period; an op's time
	// is quantized to it.
	pollInterval    = 10 * time.Millisecond
	daemonMCSamples = 200
	// checkKind is the op whose daemon outcome is compared, once per
	// run, with the same request computed in-process.
	checkKind = "s880/verilog/statistical"
)

// daemon is an in-process statleakd: a job manager at its default
// configuration behind the HTTP API on a loopback listener.
type daemon struct {
	m      *server.Manager
	srv    *http.Server
	base   string
	client *http.Client
	served chan error
}

func startDaemon() (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	m := server.NewManager(server.Config{})
	dm := &daemon{
		m:      m,
		srv:    &http.Server{Handler: server.Handler(m)},
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Timeout: time.Minute},
		served: make(chan error, 1),
	}
	go func() { dm.served <- dm.srv.Serve(ln) }()
	return dm, nil
}

// close stops the listener and the manager and waits for both.
func (dm *daemon) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = dm.srv.Shutdown(ctx) // in-flight requests are the benchmark's own, already answered
	<-dm.served
	_ = dm.m.Shutdown(ctx) // no job is left running between ops
	dm.client.CloseIdleConnections()
}

// do sends one API request and decodes the JSON reply into into.
func (dm *daemon) do(ctx context.Context, method, path string, body []byte, want int, into any) error {
	var r io.Reader = http.NoBody
	if body != nil {
		r = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, dm.base+path, r)
	if err != nil {
		return err
	}
	resp, err := dm.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body) // read to EOF so the connection is reused
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(body))
	}
	return json.Unmarshal(body, into)
}

// roundTrip submits req, polls its status until it is terminal, and
// fetches the result, as a client of the daemon does.
func (dm *daemon) roundTrip(ctx context.Context, tr *tracer, req server.Request) (*server.Outcome, map[string]float64, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, nil, err
	}
	t0 := time.Now()
	var st server.Status
	if err := tr.call("server.submit", func() error {
		return dm.do(ctx, http.MethodPost, "/v1/jobs", body, http.StatusAccepted, &st)
	}); err != nil {
		return nil, nil, err
	}
	submitted := time.Now()
	pc := &phaseClock{start: submitted}
	polls := 0
	timer := time.NewTimer(pollInterval)
	defer timer.Stop()
	wait := tr.begin("server.wait")
	for !st.State.Terminal() {
		select {
		case <-ctx.Done():
			tr.end(wait)
			return nil, nil, ctx.Err()
		case <-timer.C:
		}
		polls++
		if err := tr.call("server.poll", func() error {
			return dm.do(ctx, http.MethodGet, "/v1/jobs/"+st.ID, nil, http.StatusOK, &st)
		}); err != nil {
			tr.end(wait)
			return nil, nil, err
		}
		if tr.on && st.Progress.Phase != "" {
			pc.mark(st.Progress.Phase)
		}
		timer.Reset(pollInterval)
	}
	tr.end(wait)
	if st.State != server.StateDone {
		return nil, nil, fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	waited := time.Now()
	var out server.Outcome
	if err := tr.call("server.result", func() error {
		return dm.do(ctx, http.MethodGet, "/v1/jobs/"+st.ID+"/result", nil, http.StatusOK, &out)
	}); err != nil {
		return nil, nil, err
	}
	end := time.Now()
	layer := map[string]float64{
		"server.submit_ms": submitted.Sub(t0).Seconds() * 1e3,
		"server.polls":     float64(polls),
		"server.result_ms": end.Sub(waited).Seconds() * 1e3,
		"opt.run_s":        out.RuntimeSec,
		"opt.moves":        float64(out.Moves),
	}
	if st.Started != nil && st.Finished != nil {
		exec := st.Finished.Sub(*st.Started).Seconds()
		layer["server.queue_wait_s"] = st.Started.Sub(st.Created).Seconds()
		layer["server.exec_s"] = exec
		layer["server.overhead_s"] = end.Sub(t0).Seconds() - exec
	}
	if tr.on && len(pc.times) > 0 {
		pc.addPhases(layer, waited)
	}
	return &out, layer, nil
}

// ---- daemon-jobs: one client round-tripping netlists ----

func setupDaemon(ctx context.Context, tr *tracer) (*instance, error) {
	var reqs []server.Request
	gates := make(map[string]int)
	in := &instance{}
	for _, name := range []string{"s880", "s1355"} {
		t, err := suiteDesign(ctx, tr, name)
		if err != nil {
			return nil, err
		}
		in.targets = append(in.targets, t)
		gates[name] = t.c.NumGates()
		benchText, verilogText, err := netlists(t.c)
		if err != nil {
			return nil, err
		}
		for _, f := range []struct{ format, text string }{{"bench", benchText}, {"verilog", verilogText}} {
			for _, optimizer := range []string{"statistical", "deterministic"} {
				reqs = append(reqs, server.Request{Netlist: f.text, Format: f.format, Name: name,
					Optimizer: optimizer, MCSamples: daemonMCSamples})
			}
		}
	}
	var dm *daemon
	if err := tr.call("server.start", func() (err error) {
		dm, err = startDaemon()
		return err
	}); err != nil {
		return nil, err
	}
	in.close = dm.close

	// last keeps the most recent outcome of each op kind for the
	// in-process equality check.
	last := make(map[string]*server.Outcome)
	for _, req := range reqs {
		req := req
		kind := req.Name + "/" + req.Format + "/" + req.Optimizer
		in.ops = append(in.ops, op{kind: kind, run: func(ctx context.Context, tr *tracer) (outcome, error) {
			out, layer, err := dm.roundTrip(ctx, tr, req)
			if err != nil {
				return outcome{}, err
			}
			last[kind] = out
			return outcome{
				leakQ99NW: out.LeakPctNW,
				feasible:  out.Feasible && out.YieldAtTmax >= opt.DefaultOptions(out.TmaxPs).YieldTarget,
				layer:     layer,
				verify:    func(*tracer) error { return checkOutcome(out, req, gates[req.Name]) },
			}, nil
		}})
		if kind == "s1355/verilog/statistical" {
			in.warmup = in.ops[len(in.ops)-1]
		}
	}
	in.final = func(ctx context.Context, tr *tracer) error {
		got, ok := last[checkKind]
		if !ok {
			return fmt.Errorf("no %s outcome to compare", checkKind)
		}
		for _, req := range reqs {
			if req.Name+"/"+req.Format+"/"+req.Optimizer == checkKind {
				return tr.call("opt.inProcess", func() error { return sameAsInProcess(ctx, got, req) })
			}
		}
		return fmt.Errorf("no %s request", checkKind)
	}
	return in, nil
}

// checkOutcome checks a daemon outcome: constraint met, SSTA yield at
// Tmax at the target, and finite Monte Carlo scoreboard numbers.
func checkOutcome(out *server.Outcome, req server.Request, gates int) error {
	target := opt.DefaultOptions(out.TmaxPs).YieldTarget
	switch {
	case !out.Feasible:
		return fmt.Errorf("%s: constraint missed", req.Optimizer)
	case !(out.YieldAtTmax >= target):
		return fmt.Errorf("%s: SSTA yield %.6f below target %.2f", req.Optimizer, out.YieldAtTmax, target)
	case out.Gates != gates:
		return fmt.Errorf("daemon saw %d gates, want %d", out.Gates, gates)
	case !finitePos(out.LeakPctNW) || !finitePos(out.TmaxPs):
		return fmt.Errorf("non-finite outcome (leak %g, tmax %g)", out.LeakPctNW, out.TmaxPs)
	case out.MC == nil || out.MC.Samples != req.MCSamples:
		return fmt.Errorf("missing Monte Carlo scoreboard")
	case !finite(out.MC.TimingYield, out.MC.LeakQ99NW, out.MC.DelayMeanPs) || !finitePos(out.MC.LeakQ99NW):
		return fmt.Errorf("non-finite Monte Carlo scoreboard %+v", *out.MC)
	}
	return nil
}

// sameAsInProcess recomputes req with the library calls the daemon
// documents — parse, bind to the default library, Tmax = 1.3·Dmin,
// optimize, score with SSTA and Monte Carlo — and requires the daemon's
// outcome to match bit for bit, apart from the wall-clock runtime.
func sameAsInProcess(ctx context.Context, got *server.Outcome, req server.Request) error {
	var (
		c   *logic.Circuit
		err error
	)
	if req.Format == "verilog" {
		c, err = verilog.ParseString(req.Netlist)
	} else {
		c, err = bench.ParseString(req.Name, req.Netlist)
	}
	if err != nil {
		return err
	}
	d, err := newDesign(c)
	if err != nil {
		return err
	}
	dmin, err := opt.MinimumDelayCtx(ctx, d.Clone())
	if err != nil {
		return err
	}
	o := opt.DefaultOptions(tmaxFactor * dmin)
	var sr *opt.StatResult
	if req.Optimizer == "deterministic" {
		dr, err := opt.DeterministicCtx(ctx, d, o)
		if err != nil {
			return err
		}
		if sr, err = opt.EvaluateStatisticalCtx(ctx, d, o); err != nil {
			return err
		}
		sr.Result = *dr
	} else if sr, err = opt.StatisticalCtx(ctx, d, o); err != nil {
		return err
	}
	mc, err := montecarlo.RunCtx(ctx, d, montecarlo.Config{Samples: req.MCSamples, Seed: 1, TmaxPs: o.TmaxPs})
	if err != nil {
		return err
	}
	est, err := yield.TimingIS(mc, o.TmaxPs)
	if err != nil {
		return err
	}
	want := server.Outcome{
		Optimizer: req.Optimizer, Circuit: req.Name, Gates: d.Circuit.NumGates(), TmaxPs: o.TmaxPs,
		Feasible: sr.Feasible, Moves: sr.Moves, SizeUps: sr.SizeUps, VthSwaps: sr.VthSwaps, SizeDowns: sr.SizeDowns,
		YieldAtTmax: sr.YieldAtTmax, LeakMeanNW: sr.LeakMeanNW, LeakPctNW: sr.LeakPctNW,
		NominalLeakNW: sr.NominalLeakNW, DelayMeanPs: sr.DelayMeanPs, DelaySigmaPs: sr.DelaySigmaPs,
		NominalDelayPs: sr.NominalDelayPs,
		MC: &server.MCOutcome{
			Samples: req.MCSamples, TimingYield: est.Yield, LeakMeanNW: mc.LeakMean(),
			LeakQ99NW: mc.LeakQuantile(0.99), DelayMeanPs: mc.DelayMean(),
			DelayQEtaPs: mc.DelayQuantile(o.YieldTarget), YieldTargetQ: o.YieldTarget,
		},
	}
	g := *got
	g.RuntimeSec = 0
	if !reflect.DeepEqual(g, want) {
		gb, _ := json.Marshal(g) // plain data: Marshal cannot fail
		wb, _ := json.Marshal(want)
		return fmt.Errorf("daemon outcome differs from the in-process result:\n daemon     %s\n in-process %s", gb, wb)
	}
	return nil
}
