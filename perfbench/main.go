// Command perfbench is the repository's end-to-end benchmark. Each
// workload is a closed loop with one caller in one process that drives
// the public packages as a user does, checks every result, and reports
// the end-to-end metrics (untraced run) or the per-layer metrics
// (traced run). Build and run it from the root of a checkout with
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Every run executes the same multiset of ops — ceil(seconds/round)
// copies of the workload's round — in an order shuffled by --seed, so
// medians compare like with like. The program's knobs (search serial
// mode, engine and MC worker counts, GOGC) stay at their defaults.
//
// The last line of stdout is one JSON object with the keys correct,
// attempted, failed and metrics; the lines before it print every metric
// by name with its unit, the checks, and the environment. The exit
// code is non-zero when any check failed.
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

const (
	// setupReps is how often a run sets up; setup_s is the median.
	setupReps = 3
	// runDeadline bounds a whole run: ops still running then fail.
	runDeadline = 170 * time.Second
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: stat-opt, signoff-yield or daemon-jobs")
		seed    = flag.Int64("seed", 1, "seed of the op order")
		seconds = flag.Int("seconds", 20, "nominal measured window [s]; it fixes the number of op rounds")
		traced  = flag.Int("trace", 0, "1 records spans and counts and reports the per-layer metrics")
		outdir  = flag.String("outdir", ".bench_build", "directory for spans and count records")
	)
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload stat-opt|signoff-yield|daemon-jobs, --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}
	ok, err := run(w, *seed, *seconds, *traced == 1, *outdir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// window accumulates what the measured ops report.
type window struct {
	opS      []float64
	byKind   map[string][]float64 // op wall times per op kind
	allocB   uint64
	gcCycles uint32
	gcPauseN uint64
	leak     []float64          // of the ops that passed
	failed   int                // ops that errored, failed a check, or missed their constraint
	layer    map[string]float64 // per-op sums
}

func run(w *workload, seed int64, seconds int, traced bool, outdir string) (bool, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	tr := newTracer(traced)
	build := buildID()
	fmt.Printf("env workload=%s seed=%d seconds=%d trace=%v gomaxprocs=%d numcpu=%d go=%s commit=%s build=%s\n",
		w.name, seed, seconds, traced, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), commit(), build)

	var exact exactCounts
	var checks []string // failed run-level checks

	// Set-up, repeated; the last instance is the one measured.
	var in *instance
	setupS := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		if in != nil {
			in.close()
		}
		runtime.GC()
		t0 := time.Now()
		next, err := w.setup(ctx, tr)
		if err != nil {
			return false, fmt.Errorf("set-up: %w", err)
		}
		in = next
		before := readCounters()
		out, err := in.warmup.run(ctx, tr)
		setupS = append(setupS, time.Since(t0).Seconds())
		if err == nil {
			if traced {
				exact.observe(in.warmup.kind, deltas(before, readCounters()))
			}
			err = out.verify(tr)
		}
		if err != nil {
			in.close()
			return false, fmt.Errorf("set-up warm-up op %s: %w", in.warmup.kind, err)
		}
	}
	defer in.close()

	rounds := int(math.Ceil(float64(seconds) / w.roundSeconds))
	ops := make([]op, 0, rounds*len(in.ops))
	for r := 0; r < rounds; r++ {
		ops = append(ops, in.ops...)
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })

	win := window{layer: make(map[string]float64), byKind: make(map[string][]float64)}
	for i, o := range ops {
		tr.op = i
		runtime.GC()
		var before map[string]float64
		if traced {
			before = readCounters()
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		id := tr.begin("perfbench.op")
		out, err := o.run(ctx, tr)
		tr.end(id)
		dt := time.Since(t0).Seconds()
		runtime.ReadMemStats(&m1)
		win.opS = append(win.opS, dt)
		win.byKind[o.kind] = append(win.byKind[o.kind], dt)
		win.allocB += m1.TotalAlloc - m0.TotalAlloc
		win.gcCycles += m1.NumGC - m0.NumGC
		win.gcPauseN += m1.PauseTotalNs - m0.PauseTotalNs
		if traced {
			d := deltas(before, readCounters())
			exact.observe(o.kind, d)
			for k, v := range d {
				win.layer[k] += v
			}
		}
		if err == nil {
			err = tr.call("perfbench.check", func() error { return out.verify(tr) })
		}
		if err == nil && !out.feasible {
			err = fmt.Errorf("result misses its constraint")
		}
		if err != nil {
			win.failed++
			fmt.Fprintf(os.Stderr, "op %d (%s) failed: %v\n", i, o.kind, err)
			continue
		}
		win.leak = append(win.leak, out.leakQ99NW)
		for k, v := range out.layer {
			win.layer[k] += v
		}
	}
	tr.op = -1

	if in.final != nil {
		if err := in.final(ctx, tr); err != nil {
			checks = append(checks, "final check: "+err.Error())
		} else {
			fmt.Println("check daemon outcome equals the in-process result bit for bit: ok")
		}
	}

	e2e, notes := endToEnd(&win, setupS)
	res := result{Attempted: len(ops), Failed: win.failed}
	fmt.Printf("end-to-end (traced=%v; %d rounds x %d ops; daemon poll interval %v):\n",
		traced, rounds, len(in.ops), pollInterval)
	printMetrics(e2e, notes)
	kinds := make([]string, 0, len(win.byKind))
	for k := range win.byKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Printf("  op %-26s median %.6g s of %d\n", k, median(win.byKind[k]), len(win.byKind[k]))
	}
	if !traced {
		res.Metrics = e2e
		if err := writeJSON(filepath.Join(outdir, "e2e-"+w.name+".json"), e2e); err != nil {
			return false, err
		}
	} else {
		layer, err := perLayer(&win, tr, in.targets)
		if err != nil {
			return false, err
		}
		layer["trace.op_p50_s"] = e2e["op_p50_s"]
		res.Metrics = layer
		fmt.Println("per-layer (traced run; per op unless the unit says otherwise):")
		printLayer(layer)
		printOverhead(filepath.Join(outdir, "e2e-"+w.name+".json"), e2e)
		if err := exact.compareFile(filepath.Join(outdir, "counts-"+w.name+"-"+build+".json")); err != nil {
			return false, err
		}
		for _, m := range exact.mismatch {
			checks = append(checks, "exact count differs: "+m)
		}
		if len(exact.mismatch) == 0 {
			fmt.Printf("check exact counts repeat across %d op kinds and earlier runs of this build: ok\n", len(exact.byKind))
		}
		if err := tr.write(filepath.Join(outdir, fmt.Sprintf("spans-%s-seed%d.json", w.name, seed))); err != nil {
			return false, err
		}
	}
	for _, c := range checks {
		fmt.Println("check FAILED:", c)
	}
	fmt.Printf("check ops: %d attempted, %d failed\n", res.Attempted, res.Failed)
	res.Correct = win.failed == 0 && len(checks) == 0
	b, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	fmt.Println(string(b))
	return res.Correct, nil
}

// endToEnd computes the end-to-end metrics, with a note per metric on
// how it was taken.
func endToEnd(w *window, setupS []float64) (map[string]metric, map[string]string) {
	n := float64(len(w.opS))
	total := 0.0
	for _, s := range w.opS {
		total += s
	}
	tail, tailNote := tailOf(w.opS)
	m := map[string]metric{
		"setup_s":         {median(setupS), "s"},
		"op_p50_s":        {median(w.opS), "s"},
		"op_tail_s":       {tail, "s"},
		"ops_per_s":       {ratio(n, total), "1/s"},
		"alloc_mb_per_op": {ratio(float64(w.allocB)/1e6, n), "MB"},
		"peak_rss_mb":     {peakRSSMB(), "MB"},
		"leak_q99_nw":     {mean(w.leak), "nW"},
		"feasible_frac":   {ratio(n-float64(w.failed), n), "frac"},
	}
	notes := map[string]string{
		"setup_s":         fmt.Sprintf("median of %d set-ups, each with one warm-up op", len(setupS)),
		"op_p50_s":        fmt.Sprintf("median of %d ops", len(w.opS)),
		"op_tail_s":       tailNote,
		"ops_per_s":       "ops / summed op wall time (GC and checks between ops excluded)",
		"alloc_mb_per_op": "runtime TotalAlloc delta over the ops, whole process",
		"peak_rss_mb":     "VmHWM of the process",
		"leak_q99_nw":     "mean over ops of the achieved 99th-percentile leakage",
		"feasible_frac":   "ops that passed their checks and met their constraint",
	}
	return m, notes
}

// tailOf returns the highest percentile of xs with at least ten values
// above it. Below 22 values no percentile above the median has ten
// values beyond it; the maximum is reported instead, and said so.
func tailOf(xs []float64) (float64, string) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, "no ops"
	}
	if n < 22 {
		return s[n-1], fmt.Sprintf("max of %d ops (below 22, no percentile above the median has 10 ops beyond it)", n)
	}
	i := n - 11
	return s[i], fmt.Sprintf("p%.1f of %d ops (10 ops beyond it)", 100*float64(i+1)/float64(n), n)
}

// perLayer turns the window's sums, the spans, and the probe ladder
// into the per-layer metrics.
func perLayer(w *window, tr *tracer, targets []probeTarget) (map[string]metric, error) {
	n := float64(len(w.opS))
	per := func(k string) float64 { return ratio(w.layer[k], n) }
	l := w.layer
	m := map[string]metric{}
	for _, name := range []string{"opt.run_s", "opt.sizing_s", "opt.recovery_s", "opt.polish_s",
		"search.spec_stall_s", "engine.refresh_s", "mc.run_s", "yield.is_s",
		"server.queue_wait_s", "server.exec_s", "server.overhead_s"} {
		m[name] = metric{per(name), "s"}
	}
	for _, name := range []string{"opt.moves", "search.rounds", "search.proposed", "search.accepted",
		"search.spec_rounds", "search.spec_aborts", "engine.applied", "engine.reverted", "engine.scored",
		"engine.refreshes", "engine.full_resyncs", "engine.replay_resyncs", "engine.replayed_moves",
		"ssta.full_analyses", "ssta.incr_updates", "ssta.nodes_retimed", "mc.samples", "mc.runs",
		"yield.is_samples", "yield.is_ess", "server.polls"} {
		m[name] = metric{per(name), "count"}
	}
	m["server.submit_ms"] = metric{per("server.submit_ms"), "ms"}
	m["server.result_ms"] = metric{per("server.result_ms"), "ms"}
	m["yield.is_rel_err"] = metric{per("yield.is_rel_err"), "ratio"}
	m["search.accept_ratio"] = metric{ratio(l["search.accepted"], l["search.proposed"]), "ratio"}
	m["search.spec_hit_ratio"] = metric{ratio(l["search.spec_rounds"], l["search.spec_rounds"]+l["search.spec_aborts"]), "ratio"}
	m["ssta.nodes_per_update"] = metric{ratio(l["ssta.nodes_retimed"], l["ssta.incr_updates"]), "count"}
	m["mc.samples_per_s"] = metric{ratio(l["mc.samples"], l["mc.run_s"]), "1/s"}

	sum, k := tr.setupSeconds("opt.MinimumDelay")
	m["opt.min_delay_s"] = metric{ratio(sum, float64(k)), "s"}

	self := tr.selfTimes()
	for _, layer := range []string{"perfbench", "opt", "montecarlo", "yield", "server", "ssta"} {
		m["self."+layer+"_s"] = metric{ratio(self[layer], n), "s"}
	}

	m["go.gc_cycles"] = metric{ratio(float64(w.gcCycles), n), "count"}
	m["go.gc_pause_ms"] = metric{ratio(float64(w.gcPauseN)/1e6, n), "ms"}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m["go.heap_peak_mb"] = metric{float64(ms.HeapSys) / 1e6, "MB"}

	probes, err := probeLadder(targets)
	if err != nil {
		return nil, fmt.Errorf("probe ladder: %w", err)
	}
	for name, v := range probes {
		unit := name[strings.LastIndexByte(name, '_')+1:]
		if strings.HasSuffix(name, "_per_move") {
			unit = "us"
		}
		m[name] = metric{v, unit}
	}
	return m, nil
}

func printMetrics(m map[string]metric, notes map[string]string) {
	for _, name := range []string{"setup_s", "op_p50_s", "op_tail_s", "ops_per_s", "alloc_mb_per_op",
		"peak_rss_mb", "leak_q99_nw", "feasible_frac"} {
		fmt.Printf("  %-16s %14.6g %-5s  %s\n", name, m[name].Value, m[name].Unit, notes[name])
	}
}

func printLayer(m map[string]metric) {
	exact := make(map[string]bool)
	timing := make(map[string]bool)
	for _, c := range counters {
		exact[c.name] = c.exact
		timing[c.name] = !c.exact
	}
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		tag := ""
		switch {
		case exact[k]:
			tag = "[exact count]"
		case timing[k]:
			tag = "[timing-dependent]"
		}
		fmt.Printf("  %-30s %14.6g %-6s %s\n", k, m[k].Value, m[k].Unit, tag)
	}
}

// printOverhead compares the traced run's end-to-end numbers with the
// last untraced run of the workload in this checkout.
func printOverhead(path string, traced map[string]metric) {
	var untraced map[string]metric
	b, err := os.ReadFile(path)
	if err != nil || json.Unmarshal(b, &untraced) != nil {
		fmt.Println("tracing overhead: no untraced run of this workload recorded yet")
		return
	}
	for _, k := range []string{"op_p50_s", "ops_per_s", "alloc_mb_per_op"} {
		u, t := untraced[k].Value, traced[k].Value
		fmt.Printf("tracing overhead: %s traced %.6g vs untraced %.6g %s (%+.1f%%)\n",
			k, t, u, traced[k].Unit, 100*(ratio(t, u)-1))
	}
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb * 1024 / 1e6
			}
		}
	}
	return 0
}

// commit is the VCS revision the binary was built from, when the build
// saw one.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// buildID identifies the binary by content, so count records of one
// build are never compared with another's.
func buildID() string {
	exe, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	f, err := os.Open(exe)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:12]
}
