// Package obs is the stdlib-only observability core: a metrics
// registry (counters, gauges, histograms — all with lock-free atomic
// hot paths), a leveled structured logger, and Prometheus text-format
// exposition. The instrumented packages (engine, ssta, montecarlo,
// opt, server) register their instruments on the Default registry at
// init time and increment them inline; `GET /metrics` on statleakd —
// or any other consumer — renders the whole registry with
// WritePrometheus.
//
// Design constraints, in order: (1) incrementing a counter on the
// engine's move hot path must cost one atomic add, no map lookup and
// no allocation, so instruments are package-level variables obtained
// once; (2) exposition must be valid Prometheus text format 0.0.4 so
// any scraper parses it; (3) everything is safe for concurrent use.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// DefBuckets are the default histogram bucket upper bounds [seconds],
// matching the conventional Prometheus latency ladder.
var DefBuckets = []float64{0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// A sample is one exposition line: name+suffix{labels} value.
type sample struct {
	suffix string // "", "_bucket", "_sum", "_count"
	labels string // rendered `{k="v",...}` or ""
	value  float64
}

// collector is the exposition side of every instrument.
type collector interface {
	collect() []sample
}

// Counter is a monotonically increasing uint64.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) collect() []sample {
	return []sample{{value: float64(c.v.Load())}}
}

// Gauge is a float64 that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds v (CAS loop; contention on gauges is rare).
func (g *Gauge) Add(v float64) {
	for {
		old := g.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) collect() []sample {
	return []sample{{value: g.Value()}}
}

// Histogram counts observations into fixed cumulative buckets and
// tracks their sum — the Prometheus histogram model. Observe is
// lock-free: one atomic add per bucket plus a CAS on the sum.
type Histogram struct {
	bounds []float64       // ascending upper bounds; +Inf is implicit
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	sum    atomic.Uint64   // float64 bits
	count  atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]atomic.Uint64, len(bs)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

func (h *Histogram) collect() []sample {
	out := make([]sample, 0, len(h.bounds)+3)
	cum := uint64(0)
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		out = append(out, sample{
			suffix: "_bucket",
			labels: `{le="` + formatValue(b) + `"}`,
			value:  float64(cum),
		})
	}
	cum += h.counts[len(h.bounds)].Load()
	out = append(out,
		sample{suffix: "_bucket", labels: `{le="+Inf"}`, value: float64(cum)},
		sample{suffix: "_sum", value: h.Sum()},
		sample{suffix: "_count", value: float64(cum)})
	return out
}

// CounterVec is a family of counters partitioned by label values.
// With interns children, so callers should hoist the child lookup out
// of hot loops.
type CounterVec struct {
	mu       sync.Mutex
	labels   []string
	children map[string]*Counter
	rendered map[string]string // child key -> rendered label string
}

// With returns (creating on first use) the child counter for the
// given label values, which must match the vec's label names in count
// and order.
func (v *CounterVec) With(values ...string) *Counter {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obs: CounterVec with %d labels got %d values", len(v.labels), len(values)))
	}
	key := strings.Join(values, "\x00")
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok := v.children[key]; ok {
		return c
	}
	c := &Counter{}
	v.children[key] = c
	v.rendered[key] = renderLabels(v.labels, values)
	return c
}

func (v *CounterVec) collect() []sample {
	v.mu.Lock()
	defer v.mu.Unlock()
	keys := make([]string, 0, len(v.children))
	for k := range v.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]sample, 0, len(keys))
	for _, k := range keys {
		out = append(out, sample{labels: v.rendered[k], value: float64(v.children[k].Value())})
	}
	return out
}

func renderLabels(names, values []string) string {
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(s string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)
	return r.Replace(s)
}

// entry is one registered metric family.
type entry struct {
	name, help, typ string
	c               collector
}

// Registry holds metric families and renders them in Prometheus text
// format. Registration is idempotent by name: re-registering a name
// returns the existing instrument (so packages can register in init
// without coordination), and a name/type clash panics — that is a
// programming error, not a runtime condition.
type Registry struct {
	mu      sync.Mutex
	entries map[string]*entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*entry)}
}

// Default is the process-wide registry the instrumented packages use.
var Default = NewRegistry()

func (r *Registry) register(name, help, typ string, mk func() collector) collector {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[name]; ok {
		if e.typ != typ {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, typ, e.typ))
		}
		return e.c
	}
	c := mk()
	r.entries[name] = &entry{name: name, help: help, typ: typ, c: c}
	return c
}

// Counter registers (or returns) the named counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, "counter", func() collector { return &Counter{} }).(*Counter)
}

// Gauge registers (or returns) the named gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, "gauge", func() collector { return &Gauge{} }).(*Gauge)
}

// Histogram registers (or returns) the named histogram with the given
// bucket upper bounds (nil ⇒ DefBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	return r.register(name, help, "histogram", func() collector { return newHistogram(bounds) }).(*Histogram)
}

// CounterVec registers (or returns) the named counter family with the
// given label names.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return r.register(name, help, "counter", func() collector {
		return &CounterVec{
			labels:   append([]string(nil), labels...),
			children: make(map[string]*Counter),
			rendered: make(map[string]string),
		}
	}).(*CounterVec)
}

// Values returns a flat snapshot of every sample the registry would
// expose, keyed exactly like the exposition line's key —
// name[suffix][{labels}], e.g. "statleak_jobs_panicked_total" or
// `statleak_jobs_finished_total{state="failed"}`. Tests and
// programmatic health checks assert on metric deltas with it instead
// of re-parsing the text format.
func (r *Registry) Values() map[string]float64 {
	r.mu.Lock()
	entries := make([]*entry, 0, len(r.entries))
	for _, e := range r.entries {
		entries = append(entries, e)
	}
	r.mu.Unlock()
	out := make(map[string]float64)
	for _, e := range entries {
		for _, s := range e.c.collect() {
			out[e.name+s.suffix+s.labels] = s.value
		}
	}
	return out
}

// WritePrometheus renders every registered family in Prometheus text
// exposition format 0.0.4, sorted by family name.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.entries))
	for n := range r.entries {
		names = append(names, n)
	}
	entries := make([]*entry, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		entries = append(entries, r.entries[n])
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, e := range entries {
		fmt.Fprintf(&b, "# HELP %s %s\n", e.name, strings.ReplaceAll(e.help, "\n", " "))
		fmt.Fprintf(&b, "# TYPE %s %s\n", e.name, e.typ)
		for _, s := range e.c.collect() {
			b.WriteString(e.name)
			b.WriteString(s.suffix)
			b.WriteString(s.labels)
			b.WriteByte(' ')
			b.WriteString(formatValue(s.value))
			b.WriteByte('\n')
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func formatValue(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
