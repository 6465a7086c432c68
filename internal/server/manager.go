package server

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// Service-layer instrumentation (see internal/obs): queue pressure,
// throughput by terminal state, and job latency. Queue depth and
// running counts are gauges refreshed on every transition, so
// /metrics scrapes see the live values without touching the queue.
var (
	metJobsSubmitted = obs.Default.Counter("statleak_jobs_submitted_total",
		"optimization jobs accepted into the queue")
	metJobsFinished = obs.Default.CounterVec("statleak_jobs_finished_total",
		"jobs reaching a terminal state", "state")
	metQueueDepth = obs.Default.Gauge("statleak_job_queue_depth",
		"jobs waiting for a worker")
	metJobsRunning = obs.Default.Gauge("statleak_jobs_running",
		"jobs currently executing")
	metJobSeconds = obs.Default.Histogram("statleak_job_run_seconds",
		"wall-clock latency of finished jobs (running time only)", nil)
	metJobsPanicked = obs.Default.Counter("statleak_jobs_panicked_total",
		"execute panics recovered by the worker pool")
)

// ErrQueueFull is returned by submit when the bounded queue is at
// capacity; the HTTP layer maps it to 503.
var ErrQueueFull = errors.New("server: job queue full")

// ErrShuttingDown is returned by submit after Shutdown has begun.
var ErrShuttingDown = errors.New("server: shutting down")

// Config sizes the manager.
type Config struct {
	// Workers is the number of concurrent optimization runs (default 2).
	Workers int
	// QueueDepth bounds the pending backlog (default 16).
	QueueDepth int
	// ResultTTL is how long a terminal job stays fetchable (default
	// 15 min). The janitor evicts expired jobs.
	ResultTTL time.Duration
	// MaxJobTimeout caps — and, for requests without timeout_sec,
	// supplies — the per-job wall-clock budget. 0 means no
	// server-side deadline (the library default; statleakd sets it
	// from -job-timeout).
	MaxJobTimeout time.Duration
	// FailPoints injects deterministic faults at the execute boundary
	// (nil in production). See the type's doc in fault.go.
	FailPoints *FailPoints
	// Log receives job lifecycle events (nil ⇒ silent).
	Log *obs.Logger
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.ResultTTL <= 0 {
		c.ResultTTL = 15 * time.Minute
	}
	return c
}

// Manager owns the job queue, the worker pool, and the TTL'd result
// store. All jobs run on designs built inside the worker from the
// request payload, so workers share no optimizer state.
type Manager struct {
	cfg Config
	log *obs.Logger

	baseCtx    context.Context
	baseCancel context.CancelFunc

	models presetModels // shared per-preset library and variation model

	mu     sync.Mutex
	jobs   map[string]*Job
	idem   map[string]string // idempotency key → job ID, lifetime = the job's
	nextID int
	closed bool

	queue       chan *Job
	wg          sync.WaitGroup // workers
	drainDone   chan struct{}  // closed when the first Shutdown reaches quiescence
	janitorDone chan struct{}
}

// NewManager starts the worker pool and the janitor.
func NewManager(cfg Config) *Manager {
	cfg = cfg.withDefaults()
	//lint:ignore ctxflow the manager owns its lifecycle root; Shutdown cancels it
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		cfg:         cfg,
		log:         cfg.Log,
		baseCtx:     ctx,
		baseCancel:  cancel,
		jobs:        make(map[string]*Job),
		idem:        make(map[string]string),
		queue:       make(chan *Job, cfg.QueueDepth),
		drainDone:   make(chan struct{}),
		janitorDone: make(chan struct{}),
	}
	m.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go m.worker()
	}
	go m.janitor()
	return m
}

// submit validates and enqueues a job, returning it with its status as
// of the submission: a new job's is snapshotted before it is enqueued,
// so it reads StatePending however fast a worker picks the job up. A
// request carrying an IdempotencyKey the manager already knows is a
// resubmission: the existing job is returned with its live state, and
// nothing is enqueued.
func (m *Manager) submit(req Request) (*Job, Status, error) {
	if err := req.Validate(); err != nil {
		return nil, Status{}, err
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, Status{}, ErrShuttingDown
	}
	if req.IdempotencyKey != "" {
		if id, ok := m.idem[req.IdempotencyKey]; ok {
			job := m.jobs[id]
			m.mu.Unlock()
			m.log.Info("job resubmission deduplicated", "id", id, "key", req.IdempotencyKey)
			return job, job.status(), nil
		}
	}
	m.nextID++
	job := &Job{
		ID:      fmt.Sprintf("job-%06d", m.nextID),
		Req:     req,
		Created: time.Now(),
		state:   StatePending,
	}
	st := job.status() // before the enqueue: no worker has seen the job
	select {
	case m.queue <- job:
	default:
		m.mu.Unlock()
		return nil, Status{}, ErrQueueFull
	}
	m.jobs[job.ID] = job
	if req.IdempotencyKey != "" {
		m.idem[req.IdempotencyKey] = job.ID
	}
	m.mu.Unlock()
	metJobsSubmitted.Inc()
	metQueueDepth.Set(float64(len(m.queue)))
	m.log.Info("job submitted", "id", job.ID, "optimizer", req.optimizer(), "circuit", req.Circuit)
	return job, st, nil
}

// Get returns the job by ID.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Jobs returns all live (non-evicted) jobs, oldest first.
func (m *Manager) Jobs() []*Job {
	m.mu.Lock()
	out := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		out = append(out, j)
	}
	m.mu.Unlock()
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// ListFilter selects a page of the job listing. The zero value means
// "everything": no state filter, offset 0, no page limit.
type ListFilter struct {
	// State keeps only jobs currently in that lifecycle state.
	State State
	// Offset skips that many matching jobs (oldest first).
	Offset int
	// Limit caps the page size; 0 means unlimited.
	Limit int
}

// List returns one page of job statuses (oldest first), the total
// number of jobs matching the filter before pagination, and the
// current queue depth. The manager mutex is held only for the map
// scan in Jobs; every status snapshot is taken per job afterwards, so
// neither status building nor the caller's JSON encoding ever runs
// under it.
func (m *Manager) List(f ListFilter) (page []Status, total, queued int) {
	jobs := m.Jobs()
	all := make([]Status, 0, len(jobs))
	for _, j := range jobs {
		st := j.status()
		if f.State != "" && st.State != f.State {
			continue
		}
		all = append(all, st)
	}
	total = len(all)
	lo := f.Offset
	if lo < 0 {
		lo = 0
	}
	if lo > total {
		lo = total
	}
	hi := total
	if f.Limit > 0 && lo+f.Limit < hi {
		hi = lo + f.Limit
	}
	return all[lo:hi], total, len(m.queue)
}

// Cancel requests cancellation. A pending job flips straight to
// cancelled (the worker skips it when it drains it from the queue); a
// running job has its context cancelled and the worker records the
// terminal state. It returns the job's status snapshot taken under the
// job lock, so callers (the DELETE handler) never have to re-fetch a
// job the janitor may have evicted in the meantime.
func (m *Manager) Cancel(id string) (Status, bool) {
	j, ok := m.Get(id)
	if !ok {
		return Status{}, false
	}
	j.mu.Lock()
	switch j.state {
	case StatePending:
		j.state = StateCancelled
		j.finished = time.Now()
		j.expires = j.finished.Add(m.cfg.ResultTTL)
		st := j.statusLocked()
		j.mu.Unlock()
		metJobsFinished.With(string(StateCancelled)).Inc()
		m.log.Info("job cancelled while pending", "id", id)
		return st, true
	case StateRunning:
		if j.cancel != nil {
			j.cancel()
		}
		st := j.statusLocked()
		j.mu.Unlock()
		m.log.Info("job cancellation requested", "id", id)
		return st, true
	default:
		st := j.statusLocked()
		j.mu.Unlock()
		return st, true
	}
}

// worker drains the queue until Shutdown closes it.
func (m *Manager) worker() {
	defer m.wg.Done()
	//lint:ignore ctxflow close(m.queue) in Shutdown is the drain signal; per-job cancellation lives in runJob
	for job := range m.queue {
		metQueueDepth.Set(float64(len(m.queue)))
		m.runJob(job)
	}
}

// runJob drives one job through running → terminal. Execution itself
// is delegated to executeGuarded (fault.go), which survives panics and
// hangs; this function only classifies the outcome.
func (m *Manager) runJob(job *Job) {
	var (
		ctx    context.Context
		cancel context.CancelFunc
	)
	if d := m.jobTimeout(&job.Req); d > 0 {
		ctx, cancel = context.WithTimeout(m.baseCtx, d)
	} else {
		ctx, cancel = context.WithCancel(m.baseCtx)
	}
	defer cancel()

	job.mu.Lock()
	if job.state != StatePending { // cancelled while queued
		job.mu.Unlock()
		return
	}
	job.state = StateRunning
	job.started = time.Now()
	job.cancel = cancel
	job.mu.Unlock()
	metJobsRunning.Add(1)
	m.log.Info("job started", "id", job.ID)

	start := time.Now()
	out, err := m.executeGuarded(ctx, job)
	elapsed := time.Since(start)
	metJobsRunning.Add(-1)
	metJobSeconds.Observe(elapsed.Seconds())

	// Classify: done / cancelled / failed. "deadline exceeded" is
	// surfaced verbatim so clients can tell a timeout from a
	// cancellation.
	var (
		final State
		msg   string
	)
	switch {
	case err == nil:
		final = StateDone
	case errors.Is(err, context.Canceled):
		final, msg = StateCancelled, "cancelled"
	case errors.Is(err, context.DeadlineExceeded):
		final, msg = StateFailed, "deadline exceeded"
	default:
		final, msg = StateFailed, err.Error()
	}

	now := time.Now()
	job.mu.Lock()
	job.finished = now
	job.expires = now.Add(m.cfg.ResultTTL)
	job.cancel = nil
	job.state = final
	if final == StateDone {
		job.outcome = out
	} else {
		job.errMsg = msg
	}
	job.mu.Unlock()

	metJobsFinished.With(string(final)).Inc()
	if err != nil {
		m.log.Warn("job finished", "id", job.ID, "state", string(final), "err", msg)
	} else {
		m.log.Info("job finished", "id", job.ID, "state", string(final), "sec", fmt.Sprintf("%.3f", elapsed.Seconds()))
	}
}

// minJanitorTick floors the janitor's tick: a ResultTTL under 4 ns
// would otherwise ask time.NewTicker for a non-positive interval, which
// panics, and a sub-millisecond one would spin the janitor.
const minJanitorTick = time.Millisecond

// janitor evicts expired terminal jobs so the result store is bounded
// by throughput × TTL.
func (m *Manager) janitor() {
	defer close(m.janitorDone)
	tick := time.NewTicker(max(m.cfg.ResultTTL/4, minJanitorTick))
	defer tick.Stop()
	for {
		select {
		case <-m.baseCtx.Done():
			return
		case now := <-tick.C:
			m.mu.Lock()
			for id, j := range m.jobs {
				j.mu.Lock()
				dead := j.state.Terminal() && !j.expires.IsZero() && now.After(j.expires)
				j.mu.Unlock()
				if dead {
					delete(m.jobs, id)
					// Evicting the job frees its idempotency key: a
					// later submit with the same key starts a new run.
					if k := j.Req.IdempotencyKey; k != "" && m.idem[k] == id {
						delete(m.idem, k)
					}
				}
			}
			m.mu.Unlock()
		}
	}
}

// Shutdown stops accepting jobs, lets queued and running work drain,
// and — if ctx expires first — cancels everything still running and
// waits for the workers to observe it. It returns ctx.Err() when the
// drain deadline forced cancellation, nil on a clean drain.
//
// Shutdown is idempotent, and repeated calls block on the first
// caller's drain: a second caller (e.g. a second signal racing the
// first in cmd/statleakd) returns only once the manager is actually
// quiescent, not the moment it sees closed == true.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		select {
		case <-m.drainDone:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	m.closed = true
	m.mu.Unlock()
	close(m.queue)

	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	// Cancel the janitor (and, on deadline, every running job), then
	// wait for full quiescence either way.
	m.baseCancel()
	//lint:ignore ctxflow quiescence wait is bounded: baseCancel above stops every waited goroutine
	<-done
	//lint:ignore ctxflow quiescence wait is bounded: the janitor exits on baseCtx.Done
	<-m.janitorDone
	close(m.drainDone)
	return err
}
