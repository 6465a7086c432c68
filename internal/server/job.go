// Package server is the service layer of the repository: a job
// manager that runs optimizations asynchronously on a bounded worker
// pool, and an HTTP JSON API over it (see http.go). Each job carries
// its own design built from the submitted netlist, so jobs share no
// mutable state — the only cross-job objects are the manager's
// bookkeeping maps, guarded by one mutex, and each technology preset's
// library and variation model, read-only once built.
package server

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/logic"
	"repro/internal/montecarlo"
	"repro/internal/opt"
	"repro/internal/scenario"
	"repro/internal/tech"
	"repro/internal/variation"
	"repro/internal/verilog"
	"repro/internal/yield"
)

// State is a job lifecycle state.
type State string

const (
	StatePending   State = "pending"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether no further transitions can happen.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Request is one optimization job submission. Exactly one of Netlist
// and Circuit selects the input; the rest parameterizes the run.
type Request struct {
	// Netlist is the netlist text (not a path — the daemon does not
	// read the client's filesystem). Format selects the parser.
	Netlist string `json:"netlist,omitempty"`
	// Format is "bench" (default) or "verilog".
	Format string `json:"format,omitempty"`
	// Circuit names a synthetic suite circuit (s432 … s7552,
	// q344 … q5378) as an alternative to Netlist.
	Circuit string `json:"circuit,omitempty"`
	// Name labels the design (defaults to Circuit or "netlist").
	Name string `json:"name,omitempty"`

	// Preset is the technology preset: 130nm, 100nm (default), 70nm.
	Preset string `json:"preset,omitempty"`

	// Optimizer is "statistical" (default), "deterministic", "anneal",
	// or "dual".
	Optimizer string `json:"optimizer,omitempty"`

	// TmaxPs fixes the delay constraint [ps]; when 0, the constraint is
	// TmaxFactor × Dmin with Dmin measured by a min-delay sizing pass.
	TmaxPs     float64 `json:"tmax_ps,omitempty"`
	TmaxFactor float64 `json:"tmax_factor,omitempty"` // default 1.3

	YieldTarget    float64 `json:"yield_target,omitempty"`    // default 0.99
	LeakPercentile float64 `json:"leak_percentile,omitempty"` // default 0.99
	CornerSigma    float64 `json:"corner_sigma,omitempty"`    // default 3.0
	MaxMoves       int     `json:"max_moves,omitempty"`

	// DisableVth / DisableSizing shrink the move set (both enabled by
	// default; inverted sense so the zero value means "full move set").
	DisableVth    bool `json:"disable_vth,omitempty"`
	DisableSizing bool `json:"disable_sizing,omitempty"`

	// LeakBudgetNW is the statistical leakage budget for the "dual"
	// optimizer (required there, ignored elsewhere).
	LeakBudgetNW float64 `json:"leak_budget_nw,omitempty"`

	// Scenario, when present, evaluates the job over a multi-corner
	// scenario family (voltage/temperature corners × body-bias domains)
	// instead of the single nominal operating point: feasibility is
	// judged on the min-over-corners yield and the objective on the
	// aggregated leakage, and the outcome carries a per-corner
	// scoreboard.
	Scenario *scenario.Spec `json:"scenario,omitempty"`

	// MCSamples, when > 0, runs a final Monte Carlo scoreboard on the
	// optimized design with the given seed (default seed 1). Sampling
	// selects the scheme: "plain" (default), "lhs", or "is"
	// (importance sampling aimed at the resolved Tmax; the scoreboard
	// then also reports ESS and the weighted yield's relative error).
	MCSamples int    `json:"mc_samples,omitempty"`
	Seed      int64  `json:"seed,omitempty"`
	Sampling  string `json:"sampling,omitempty"`

	// TimeoutSec bounds the job's wall-clock runtime [s]; 0 defers to
	// the server's Config.MaxJobTimeout, which also caps explicit
	// values. A job over its deadline fails with "deadline exceeded"
	// (distinct from cancellation).
	TimeoutSec float64 `json:"timeout_sec,omitempty"`

	// IdempotencyKey deduplicates resubmissions: a submission carrying a
	// key the manager already knows returns the existing job (whatever
	// its state) instead of enqueuing a duplicate run. The mapping
	// lives exactly as long as the job itself — once the janitor
	// evicts the job, the key is free again. A client retrying a
	// submission after a lost response therefore gets the job it
	// already started, not a second run.
	IdempotencyKey string `json:"idempotency_key,omitempty"`
}

// maxIdempotencyKeyLen bounds client-supplied keys so the dedup map
// cannot be grown with megabyte keys.
const maxIdempotencyKeyLen = 256

// Validate checks the request shape without building anything.
func (r *Request) Validate() error {
	switch {
	case r.Netlist == "" && r.Circuit == "":
		return fmt.Errorf("need netlist or circuit")
	case r.Netlist != "" && r.Circuit != "":
		return fmt.Errorf("use netlist or circuit, not both")
	}
	switch r.Format {
	case "", "bench", "verilog":
	default:
		return fmt.Errorf("unknown format %q (want bench or verilog)", r.Format)
	}
	switch r.Optimizer {
	case "", "statistical", "deterministic", "anneal", "dual":
	default:
		return fmt.Errorf("unknown optimizer %q (want statistical, deterministic, anneal, or dual)", r.Optimizer)
	}
	if r.Optimizer == "dual" && r.LeakBudgetNW <= 0 {
		return fmt.Errorf("optimizer dual needs leak_budget_nw > 0")
	}
	if r.TmaxPs < 0 || r.TmaxFactor < 0 {
		return fmt.Errorf("tmax_ps and tmax_factor must be >= 0")
	}
	if r.TmaxFactor > 0 && r.TmaxFactor < 1 {
		return fmt.Errorf("tmax_factor %g must be >= 1 (a multiple of the minimum delay)", r.TmaxFactor)
	}
	if r.MCSamples < 0 {
		return fmt.Errorf("mc_samples must be >= 0")
	}
	if _, err := montecarlo.ParseSampling(r.Sampling); err != nil {
		return err
	}
	if r.TimeoutSec < 0 {
		return fmt.Errorf("timeout_sec must be >= 0")
	}
	if len(r.IdempotencyKey) > maxIdempotencyKeyLen {
		return fmt.Errorf("idempotency_key longer than %d bytes", maxIdempotencyKeyLen)
	}
	if _, err := tech.Preset(r.preset()); err != nil {
		return err
	}
	// The optimizer's own ranges, checked at a placeholder Tmax (the
	// real one needs the netlist's minimum delay): a request the
	// optimizer would reject fails here, before a worker runs
	// MinimumDelay for it.
	return r.options(1).Validate()
}

func (r *Request) preset() string {
	if r.Preset == "" {
		return "100nm"
	}
	return r.Preset
}

func (r *Request) optimizer() string {
	if r.Optimizer == "" {
		return "statistical"
	}
	return r.Optimizer
}

// options maps the request onto opt.Options; Options.Validate checks
// the scenario spec with the rest.
func (r *Request) options(tmaxPs float64) opt.Options {
	o := opt.DefaultOptions(tmaxPs)
	if !r.Scenario.IsZero() {
		o.Scenario = r.Scenario
	}
	if r.YieldTarget > 0 {
		o.YieldTarget = r.YieldTarget
	}
	if r.LeakPercentile > 0 {
		o.LeakPercentile = r.LeakPercentile
	}
	if r.CornerSigma > 0 {
		o.CornerSigma = r.CornerSigma
	}
	o.EnableVth = !r.DisableVth
	o.EnableSizing = !r.DisableSizing
	o.MaxMoves = r.MaxMoves
	return o
}

// Snapshot is the live progress view of a running job, published by
// the optimizer's Progress callback and read by GET /v1/jobs/{id}.
type Snapshot struct {
	Phase       string  `json:"phase,omitempty"`
	Moves       int     `json:"moves"`
	Round       int     `json:"round,omitempty"`          // search rounds driven in the current phase
	BestLeakQNW float64 `json:"best_leak_q_nw,omitempty"` // lowest objective-percentile leakage seen [nW]
	Yield       float64 `json:"yield,omitempty"`          // last reported timing yield at Tmax
}

// MCOutcome is the optional final Monte Carlo scoreboard.
type MCOutcome struct {
	Samples      int     `json:"samples"`
	TimingYield  float64 `json:"timing_yield"`
	LeakMeanNW   float64 `json:"leak_mean_nw"`
	LeakQ99NW    float64 `json:"leak_q99_nw"`
	DelayMeanPs  float64 `json:"delay_mean_ps"`
	DelayQEtaPs  float64 `json:"delay_q_eta_ps"`
	YieldTargetQ float64 `json:"yield_target_q"`
	// Importance-sampling diagnostics (present only for sampling "is"):
	// the effective sample size of the likelihood-ratio weights and the
	// relative standard error of the failure-probability estimate.
	Sampling string  `json:"sampling,omitempty"`
	ESS      float64 `json:"ess,omitempty"`
	RelErr   float64 `json:"rel_err,omitempty"`
}

// DualOutcome carries the dual-optimizer-specific result fields.
type DualOutcome struct {
	BudgetNW   float64 `json:"budget_nw"`
	DelayQPs   float64 `json:"delay_q_ps"`
	SwapsToLVT int     `json:"swaps_to_lvt"`
}

// Outcome is a finished job's result payload.
type Outcome struct {
	Optimizer string  `json:"optimizer"`
	Circuit   string  `json:"circuit"`
	Gates     int     `json:"gates"`
	TmaxPs    float64 `json:"tmax_ps"`
	Feasible  bool    `json:"feasible"`

	Moves     int `json:"moves"`
	SizeUps   int `json:"size_ups"`
	VthSwaps  int `json:"vth_swaps"`
	SizeDowns int `json:"size_downs"`

	YieldAtTmax    float64 `json:"yield_at_tmax"`
	LeakMeanNW     float64 `json:"leak_mean_nw"`
	LeakPctNW      float64 `json:"leak_pct_nw"`
	NominalLeakNW  float64 `json:"nominal_leak_nw"`
	DelayMeanPs    float64 `json:"delay_mean_ps"`
	DelaySigmaPs   float64 `json:"delay_sigma_ps"`
	NominalDelayPs float64 `json:"nominal_delay_ps"`

	RuntimeSec float64      `json:"runtime_sec"`
	MC         *MCOutcome   `json:"mc,omitempty"`
	Dual       *DualOutcome `json:"dual,omitempty"`

	// Corners is the per-corner end-state scoreboard of a scenario job
	// (Request.Scenario present); the scalar fields above then report
	// the corner aggregates (min yield, aggregated leakage).
	Corners []engine.CornerMetrics `json:"corners,omitempty"`
}

// Job is one queued/running/finished optimization. All mutable fields
// are guarded by mu; the immutable ones (ID, Req, Created) are set
// before the job is published.
type Job struct {
	ID      string
	Req     Request
	Created time.Time

	mu       sync.Mutex
	state    State
	started  time.Time
	finished time.Time
	snapshot Snapshot
	outcome  *Outcome
	errMsg   string
	cancel   context.CancelFunc
	expires  time.Time
}

// Status is the JSON view of a job's lifecycle for the API.
type Status struct {
	ID      string    `json:"id"`
	State   State     `json:"state"`
	Created time.Time `json:"created"`
	// Started/Finished are pointers because `omitempty` is a no-op for
	// struct values: with time.Time a pending job would serialize
	// "started": "0001-01-01T00:00:00Z" instead of omitting the field.
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
	Progress Snapshot   `json:"progress"`
	Error    string     `json:"error,omitempty"`
	// IdempotencyKey echoes the request's dedup key so a resubmitter
	// can match a status to the key it sent.
	IdempotencyKey string `json:"idempotency_key,omitempty"`
}

// status snapshots the job under its lock.
func (j *Job) status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked()
}

// statusLocked builds the status snapshot; j.mu must be held.
func (j *Job) statusLocked() Status {
	st := Status{
		ID:             j.ID,
		State:          j.state,
		Created:        j.Created,
		Progress:       j.snapshot,
		Error:          j.errMsg,
		IdempotencyKey: j.Req.IdempotencyKey,
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	return st
}

// observe is the opt.Options.Progress sink: it folds an optimizer
// snapshot into the job's live view. Called synchronously from the
// worker goroutine running the job.
func (j *Job) observe(ev opt.Progress) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateRunning {
		// Late snapshot from an abandoned run (a hung execute the
		// worker gave up on) — drop it rather than scribble over a
		// terminal status.
		return
	}
	j.snapshot.Phase = ev.Phase
	j.snapshot.Moves = ev.Moves
	j.snapshot.Round = ev.Round
	if ev.LeakQNW > 0 && (j.snapshot.BestLeakQNW <= 0 || ev.LeakQNW < j.snapshot.BestLeakQNW) {
		j.snapshot.BestLeakQNW = ev.LeakQNW
	}
	if ev.Yield > 0 {
		j.snapshot.Yield = ev.Yield
	}
}

// presetModels builds each technology preset's library and variation
// model on first use and shares them across jobs. Both are immutable
// once built (Design.Clone shares them the same way), and the model's
// eigendecomposition would otherwise run once per job.
type presetModels struct {
	mu     sync.Mutex
	byName map[string]presetModel
}

type presetModel struct {
	lib *tech.Library
	vm  *variation.Model
}

// get returns the preset's shared library and variation model,
// building them on the first call for that preset.
func (pm *presetModels) get(preset string) (*tech.Library, *variation.Model, error) {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	if m, ok := pm.byName[preset]; ok {
		return m.lib, m.vm, nil
	}
	p, err := tech.Preset(preset)
	if err != nil {
		return nil, nil, err
	}
	lib, err := tech.NewLibrary(p)
	if err != nil {
		return nil, nil, err
	}
	vm, err := variation.New(variation.Default(p.LeffNom))
	if err != nil {
		return nil, nil, err
	}
	if pm.byName == nil {
		pm.byName = make(map[string]presetModel)
	}
	pm.byName[preset] = presetModel{lib: lib, vm: vm}
	return lib, vm, nil
}

// buildDesign constructs the job's private design from the request,
// bound to the preset's shared library and variation model.
func buildDesign(r *Request, models *presetModels) (*core.Design, string, error) {
	var (
		c    *logic.Circuit
		err  error
		name = r.Name
	)
	switch {
	case r.Circuit != "":
		if name == "" {
			name = r.Circuit
		}
		c, err = bench.GenerateNamed(r.Circuit)
	case strings.EqualFold(r.Format, "verilog"):
		if name == "" {
			name = "netlist"
		}
		c, err = verilog.ParseString(r.Netlist)
	default:
		if name == "" {
			name = "netlist"
		}
		c, err = bench.ParseString(name, r.Netlist)
	}
	if err != nil {
		return nil, "", err
	}
	lib, vm, err := models.get(r.preset())
	if err != nil {
		return nil, "", err
	}
	d, err := core.NewDesign(c, lib, vm)
	if err != nil {
		return nil, "", err
	}
	return d, name, nil
}

// execute runs the optimization for one job on the worker goroutine.
// Everything it mutates is job-local (the preset models it shares are
// read-only); ctx cancellation propagates to the optimizer loops and
// the Monte Carlo pool.
func execute(ctx context.Context, job *Job, models *presetModels) (*Outcome, error) {
	r := &job.Req
	d, name, err := buildDesign(r, models)
	if err != nil {
		return nil, err
	}
	tmax := r.TmaxPs
	if tmax <= 0 {
		factor := r.TmaxFactor
		if factor <= 0 {
			factor = 1.3
		}
		dmin, err := opt.MinimumDelayCtx(ctx, d.Clone())
		if err != nil {
			return nil, err
		}
		tmax = factor * dmin
	}
	o := r.options(tmax)
	o.Progress = job.observe

	out := &Outcome{
		Optimizer: r.optimizer(),
		Circuit:   name,
		Gates:     d.Circuit.NumGates(),
		TmaxPs:    tmax,
	}
	fill := func(sr *opt.StatResult) {
		out.Feasible = sr.Feasible
		out.Moves = sr.Moves
		out.SizeUps = sr.SizeUps
		out.VthSwaps = sr.VthSwaps
		out.SizeDowns = sr.SizeDowns
		out.YieldAtTmax = sr.YieldAtTmax
		out.LeakMeanNW = sr.LeakMeanNW
		out.LeakPctNW = sr.LeakPctNW
		out.NominalLeakNW = sr.NominalLeakNW
		out.DelayMeanPs = sr.DelayMeanPs
		out.DelaySigmaPs = sr.DelaySigmaPs
		out.NominalDelayPs = sr.NominalDelayPs
		out.RuntimeSec = sr.Runtime.Seconds()
		out.Corners = sr.Corners
	}
	switch out.Optimizer {
	case "statistical":
		sr, err := opt.StatisticalCtx(ctx, d, o)
		if err != nil {
			return nil, err
		}
		fill(sr)
	case "deterministic":
		dr, err := opt.DeterministicCtx(ctx, d, o)
		if err != nil {
			return nil, err
		}
		// Put the corner flow on the same statistical scoreboard.
		sr, err := opt.EvaluateStatisticalCtx(ctx, d, o)
		if err != nil {
			return nil, err
		}
		sr.Result = *dr
		fill(sr)
	case "anneal":
		cfg := opt.DefaultAnnealConfig()
		if r.Seed != 0 {
			cfg.Seed = r.Seed
		}
		sr, err := opt.AnnealCtx(ctx, d, o, cfg)
		if err != nil {
			return nil, err
		}
		fill(sr)
	case "dual":
		dr, err := opt.MinimizeDelayUnderLeakBudgetCtx(ctx, d, o, r.LeakBudgetNW)
		if err != nil {
			return nil, err
		}
		out.Feasible = dr.Feasible
		out.Moves = dr.Moves
		out.SizeUps = dr.SizeUps
		out.VthSwaps = dr.SwapsToLVT
		out.LeakPctNW = dr.LeakPctNW
		out.NominalLeakNW = d.TotalLeak()
		out.RuntimeSec = dr.Runtime.Seconds()
		out.Dual = &DualOutcome{BudgetNW: dr.BudgetNW, DelayQPs: dr.DelayQPs, SwapsToLVT: dr.SwapsToLVT}
		out.Corners = dr.Corners
	}
	if r.MCSamples > 0 {
		seed := r.Seed
		if seed == 0 {
			seed = 1
		}
		smode, err := montecarlo.ParseSampling(r.Sampling)
		if err != nil {
			return nil, err
		}
		mc, err := montecarlo.RunCtx(ctx, d, montecarlo.Config{
			Samples: r.MCSamples, Seed: seed, Sampling: smode, TmaxPs: tmax,
		})
		if err != nil {
			return nil, err
		}
		est, err := yield.TimingIS(mc, tmax)
		if err != nil {
			return nil, err
		}
		eta := o.YieldTarget
		out.MC = &MCOutcome{
			Samples:      r.MCSamples,
			TimingYield:  est.Yield,
			LeakMeanNW:   mc.LeakMean(),
			LeakQ99NW:    mc.LeakQuantile(0.99),
			DelayMeanPs:  mc.DelayMean(),
			DelayQEtaPs:  mc.DelayQuantile(eta),
			YieldTargetQ: eta,
		}
		if smode == montecarlo.ImportanceSampling {
			out.MC.Sampling = smode.String()
			out.MC.ESS = est.ESS
			out.MC.RelErr = est.RelErr
		}
	}
	return out, nil
}
