package benchjson

import (
	"bufio"
	"strings"
	"testing"
)

func TestParseFullRun(t *testing.T) {
	rep, err := Parse(lines([]string{
		"goos: linux",
		"goarch: amd64",
		"pkg: repro/internal/engine",
		"cpu: Intel(R) Xeon(R) CPU @ 2.10GHz",
		"BenchmarkWorkerResyncReplayLocal-4   \t  250000\t      4614 ns/op\t       0 B/op\t       0 allocs/op",
		"BenchmarkWorkerResyncCloneLocal-4    \t    4280\t    277620 ns/op\t  547392 B/op\t      24 allocs/op",
		"PASS",
		"ok  \trepro/internal/engine\t12.345s",
		"pkg: repro/internal/montecarlo",
		"BenchmarkSample-4\t100\t1234.5 ns/op\t3.5 samples/ms",
		"?   \trepro/cmd/benchjson\t[no test files]",
	}))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Goos != "linux" || rep.Goarch != "amd64" || !strings.Contains(rep.CPU, "Xeon") {
		t.Fatalf("metadata not captured: %+v", rep)
	}
	if len(rep.Benchmarks) != 3 {
		t.Fatalf("want 3 results, got %d: %+v", len(rep.Benchmarks), rep.Benchmarks)
	}
	b0 := rep.Benchmarks[0]
	if b0.Pkg != "repro/internal/engine" || b0.Name != "BenchmarkWorkerResyncReplayLocal" || b0.Procs != 4 {
		t.Fatalf("bad first result: %+v", b0)
	}
	if b0.Iterations != 250000 || b0.NsPerOp != 4614 || b0.BytesPerOp != 0 || b0.AllocsPerOp != 0 {
		t.Fatalf("bad first measurements: %+v", b0)
	}
	b1 := rep.Benchmarks[1]
	if b1.BytesPerOp != 547392 || b1.AllocsPerOp != 24 {
		t.Fatalf("bad benchmem fields: %+v", b1)
	}
	b2 := rep.Benchmarks[2]
	if b2.Pkg != "repro/internal/montecarlo" || b2.NsPerOp != 1234.5 {
		t.Fatalf("pkg header not tracked across packages: %+v", b2)
	}
	if got := b2.Metrics["samples/ms"]; got != 3.5 {
		t.Fatalf("custom ReportMetric unit lost: %+v", b2)
	}
}

func TestParseSkipsNonResultBenchmarkLines(t *testing.T) {
	rep, err := Parse(lines([]string{
		"BenchmarkFoo", // a benchmark logging its own name: odd field count
		"BenchmarkBar-4\tnotanumber\t12 ns/op",
		"BenchmarkBaz-4\t100\t12 ns/op",
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 1 || rep.Benchmarks[0].Name != "BenchmarkBaz" {
		t.Fatalf("want only BenchmarkBaz, got %+v", rep.Benchmarks)
	}
}

func TestParseRejectsMalformedMeasurement(t *testing.T) {
	_, err := Parse(lines([]string{"BenchmarkBad-4\t100\tXX ns/op"}))
	if err == nil {
		t.Fatal("want error for malformed measurement value")
	}
}

func TestTeeEchoesLines(t *testing.T) {
	var sb strings.Builder
	next := Tee(bufio.NewScanner(strings.NewReader("a\nb\n")), &sb)
	var got []string
	for {
		l, ok := next()
		if !ok {
			break
		}
		got = append(got, l)
	}
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("lines not delivered: %v", got)
	}
	if sb.String() != "a\nb\n" {
		t.Fatalf("lines not echoed: %q", sb.String())
	}
}

// lines adapts a string slice to the line-source shape Parse expects.
func lines(ls []string) func() (string, bool) {
	i := 0
	return func() (string, bool) {
		if i >= len(ls) {
			return "", false
		}
		l := ls[i]
		i++
		return l, true
	}
}
