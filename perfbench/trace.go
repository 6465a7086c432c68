package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

// span is one timed call the benchmark made into a layer. Spans of one
// op share Op; Parent links a span to the call that caused it (0 for a
// root). Name is "<layer>.<call>", so the layer is the prefix.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Op     int     `json:"op"` // index in the measured window, -1 outside it
	Name   string  `json:"name"`
	StartS float64 `json:"start_s"` // since the run started
	EndS   float64 `json:"end_s"`
}

// tracer keeps spans in memory for the whole run; they are written out
// once, after the measured window. The workloads are closed loops with
// one caller, so spans nest on a plain stack. A disabled tracer records
// nothing and costs one branch per call.
type tracer struct {
	on    bool
	t0    time.Time
	op    int
	spans []span
	stack []int
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now(), op: -1} }

// begin opens a span under the innermost open one and returns its ID.
func (t *tracer) begin(name string) int {
	if !t.on {
		return 0
	}
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Name: name,
		StartS: time.Since(t.t0).Seconds()})
	t.stack = append(t.stack, id)
	return id
}

// end closes the span begin returned; spans close in LIFO order.
func (t *tracer) end(id int) {
	if !t.on {
		return
	}
	t.spans[id-1].EndS = time.Since(t.t0).Seconds()
	t.stack = t.stack[:len(t.stack)-1]
}

// call runs f inside a span.
func (t *tracer) call(name string, f func() error) error {
	id := t.begin(name)
	err := f()
	t.end(id)
	return err
}

// add records an already finished span under parent, for intervals
// reconstructed after the fact (optimizer phases from Progress events).
func (t *tracer) add(name string, parent int, start, end time.Time) {
	if !t.on {
		return
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: t.op, Name: name,
		StartS: start.Sub(t.t0).Seconds(), EndS: end.Sub(t.t0).Seconds()})
}

// selfTimes returns, per layer, the summed time of the measured ops'
// spans not covered by their child spans.
func (t *tracer) selfTimes() map[string]float64 {
	covered := make(map[int]float64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			covered[s.Parent] += s.EndS - s.StartS
		}
	}
	out := make(map[string]float64)
	for _, s := range t.spans {
		if s.Op >= 0 {
			out[layerOf(s.Name)] += s.EndS - s.StartS - covered[s.ID]
		}
	}
	return out
}

// setupSeconds sums the durations of the named spans outside the
// measured window and counts them.
func (t *tracer) setupSeconds(name string) (sum float64, n int) {
	for _, s := range t.spans {
		if s.Name == name && s.Op < 0 {
			sum += s.EndS - s.StartS
			n++
		}
	}
	return sum, n
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// phaseClock turns optimizer progress reports into phase intervals:
// the time up to each report is attributed to that report's phase, and
// the tail after the last report to the last phase.
type phaseClock struct {
	start  time.Time
	times  []time.Time
	phases []string
}

func (p *phaseClock) mark(phase string) {
	p.times = append(p.times, time.Now())
	p.phases = append(p.phases, phase)
}

type phaseInterval struct {
	phase      string
	start, end time.Time
}

// intervals returns the merged phase runs up to end.
func (p *phaseClock) intervals(end time.Time) []phaseInterval {
	var out []phaseInterval
	from := p.start
	for i, at := range p.times {
		if i == len(p.times)-1 {
			at = end
		}
		ph := p.phases[i]
		if n := len(out); n > 0 && out[n-1].phase == ph {
			out[n-1].end = at
		} else {
			out = append(out, phaseInterval{phase: ph, start: from, end: at})
		}
		from = at
	}
	return out
}

// addPhases adds each phase's seconds to layer as opt.<phase>_s.
func (p *phaseClock) addPhases(layer map[string]float64, end time.Time) []phaseInterval {
	ivs := p.intervals(end)
	for _, iv := range ivs {
		layer["opt."+iv.phase+"_s"] += iv.end.Sub(iv.start).Seconds()
	}
	return ivs
}

// counter is one per-layer count read from the program's own metrics
// registry (obs.Default) as a per-op delta. Exact counts must repeat
// exactly whenever the same op runs again; the others depend on
// scheduling or wall time.
type counter struct {
	name  string // per-layer metric name
	key   string // registry family; labelled children are summed
	exact bool
}

var counters = []counter{
	{"search.rounds", "statleak_search_rounds_total", true},
	{"search.proposed", "statleak_opt_moves_proposed_total", true},
	{"search.accepted", "statleak_opt_moves_accepted_total", true},
	{"search.spec_rounds", "statleak_search_spec_rounds_total", false},
	{"search.spec_aborts", "statleak_search_spec_aborts_total", false},
	{"search.spec_stall_s", "statleak_search_spec_commit_stall_seconds_sum", false},
	{"engine.applied", "statleak_engine_moves_applied_total", true},
	{"engine.reverted", "statleak_engine_moves_reverted_total", true},
	{"engine.scored", "statleak_engine_moves_scored_total", true},
	{"engine.refreshes", "statleak_engine_cache_refresh_seconds_count", true},
	{"engine.refresh_s", "statleak_engine_cache_refresh_seconds_sum", false},
	{"engine.full_resyncs", "statleak_engine_worker_full_resyncs_total", false},
	{"engine.replay_resyncs", "statleak_engine_worker_replay_resyncs_total", false},
	{"engine.replayed_moves", "statleak_engine_worker_replayed_moves_total", false},
	{"ssta.full_analyses", "statleak_ssta_full_analyses_total", true},
	{"ssta.incr_updates", "statleak_ssta_incremental_updates_total", true},
	{"ssta.nodes_retimed", "statleak_ssta_incremental_nodes_retimed_total", true},
	{"mc.samples", "statleak_mc_samples_total", true},
	{"mc.runs", "statleak_mc_runs_total", true},
	{"mc.run_s", "statleak_mc_run_seconds_sum", false},
}

// readCounters snapshots every counter family, summing labelled
// children. A family the program does not register reads 0.
func readCounters() map[string]float64 {
	vals := obs.Default.Values()
	out := make(map[string]float64, len(counters))
	for _, c := range counters {
		for k, v := range vals {
			if k == c.key || strings.HasPrefix(k, c.key+"{") {
				out[c.name] += v
			}
		}
	}
	return out
}

func deltas(before, after map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// exactCounts keeps the exact counts of each op kind and records every
// repetition that disagrees with the first one seen.
type exactCounts struct {
	byKind   map[string]map[string]float64
	mismatch []string
}

func (e *exactCounts) observe(kind string, d map[string]float64) {
	if e.byKind == nil {
		e.byKind = make(map[string]map[string]float64)
	}
	ref, seen := e.byKind[kind]
	if !seen {
		ref = make(map[string]float64)
		e.byKind[kind] = ref
	}
	for _, c := range counters {
		switch {
		case !c.exact:
		case !seen:
			ref[c.name] = d[c.name]
		case ref[c.name] != d[c.name]:
			e.mismatch = append(e.mismatch, kind+" "+c.name)
		}
	}
}

// compareFile checks the counts against those earlier runs of the same
// binary recorded at path, then adds this run's op kinds to the record.
func (e *exactCounts) compareFile(path string) error {
	prev := make(map[string]map[string]float64)
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &prev); err != nil {
			return err
		}
	}
	kinds := make([]string, 0, len(e.byKind))
	for k := range e.byKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, kind := range kinds {
		old, ok := prev[kind]
		if !ok {
			prev[kind] = e.byKind[kind]
			continue
		}
		for name, v := range e.byKind[kind] {
			if o, ok := old[name]; ok && o != v {
				e.mismatch = append(e.mismatch, kind+" "+name+" (vs an earlier run)")
			}
		}
	}
	b, err := json.Marshal(prev)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
