package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "ops")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("test_ops_total", "ops"); again != c {
		t.Fatalf("re-registration returned a different counter")
	}
	g := r.Gauge("test_depth", "depth")
	g.Set(3.5)
	g.Add(-1)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %g, want 2.5", got)
	}
}

func TestRegistryTypeClashPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_x", "x")
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic on type clash")
		}
	}()
	r.Gauge("test_x", "x")
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_latency_seconds", "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if n := h.count.Load(); n != 5 {
		t.Fatalf("count = %d, want 5", n)
	}
	if h.Sum() != 56.05 {
		t.Fatalf("sum = %g, want 56.05", h.Sum())
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`test_latency_seconds_bucket{le="0.1"} 1`,
		`test_latency_seconds_bucket{le="1"} 3`,
		`test_latency_seconds_bucket{le="10"} 4`,
		`test_latency_seconds_bucket{le="+Inf"} 5`,
		`test_latency_seconds_sum 56.05`,
		`test_latency_seconds_count 5`,
		"# TYPE test_latency_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryValues(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_panics_total", "panics").Add(2)
	r.Gauge("test_depth", "depth").Set(1.5)
	r.CounterVec("test_finished_total", "finished", "state").With("failed").Inc()
	r.Histogram("test_wait_seconds", "wait", []float64{1}).Observe(0.5)
	vals := r.Values()
	for key, want := range map[string]float64{
		"test_panics_total":                   2,
		"test_depth":                          1.5,
		`test_finished_total{state="failed"}`: 1,
		`test_wait_seconds_bucket{le="1"}`:    1,
		`test_wait_seconds_bucket{le="+Inf"}`: 1,
		"test_wait_seconds_sum":               0.5,
		"test_wait_seconds_count":             1,
	} {
		if got := vals[key]; got != want {
			t.Errorf("Values()[%q] = %g, want %g", key, got, want)
		}
	}
}

func TestCounterVec(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("test_moves_total", "moves", "optimizer")
	v.With("stat").Add(3)
	v.With("det").Inc()
	if v.With("stat") != v.With("stat") {
		t.Fatalf("With not interned")
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`test_moves_total{optimizer="det"} 1`,
		`test_moves_total{optimizer="stat"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("test_esc_total", "esc", "k").With(`a"b\c` + "\n").Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `test_esc_total{k="a\"b\\c\n"} 1`
	if !strings.Contains(b.String(), want) {
		t.Fatalf("exposition missing %q:\n%s", want, b.String())
	}
}

// TestExpositionFormat checks every non-comment line is "name value"
// or "name{labels} value" — the shape any Prometheus parser accepts.
func TestExpositionFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_a_total", "a").Inc()
	r.Gauge("test_b", "b").Set(1.25)
	r.Histogram("test_c_seconds", "c", nil).Observe(0.2)
	r.CounterVec("test_d_total", "d", "x", "y").With("1", "2").Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(b.String()), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Errorf("line %q: want 2 fields", line)
		}
	}
}

func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_conc_total", "conc")
	g := r.Gauge("test_conc_gauge", "conc")
	h := r.Histogram("test_conc_seconds", "conc", nil)
	v := r.CounterVec("test_conc_vec_total", "conc", "w")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lc := v.With("worker")
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(0.01)
				lc.Inc()
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	if g.Value() != 8000 {
		t.Fatalf("gauge = %g, want 8000", g.Value())
	}
	if n := h.count.Load(); n != 8000 {
		t.Fatalf("histogram count = %d, want 8000", n)
	}
	if v.With("worker").Value() != 8000 {
		t.Fatalf("vec = %d, want 8000", v.With("worker").Value())
	}
}

func TestLoggerFormatAndLevels(t *testing.T) {
	var b strings.Builder
	l := NewLogger(&b, LevelInfo)
	l.now = func() time.Time { return time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC) }
	l.log(LevelDebug, "hidden", nil)
	l.Info("job started", "id", "job-000001", "gates", 160)
	l.Error("boom", "component", "manager", "err", "queue full")
	out := b.String()
	if strings.Contains(out, "hidden") {
		t.Errorf("debug line written at info level:\n%s", out)
	}
	for _, want := range []string{
		"ts=2026-08-05T12:00:00Z level=info msg=\"job started\" id=job-000001 gates=160",
		"level=error msg=boom component=manager err=\"queue full\"",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("log output missing %q:\n%s", want, out)
		}
	}
}

func TestNilLoggerSafe(t *testing.T) {
	var l *Logger
	l.Info("nothing happens")
	l.Error("still nothing")
	if l.Enabled(LevelError) {
		t.Fatalf("nil logger reports enabled")
	}
}

func TestParseLevel(t *testing.T) {
	for s, want := range map[string]Level{
		"debug": LevelDebug, "info": LevelInfo, "WARN": LevelWarn, "error": LevelError,
	} {
		got, err := ParseLevel(s)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Errorf("ParseLevel(loud) succeeded")
	}
}
