// Package benchjson parses the text output of `go test -bench
// -benchmem` into a structured report. cmd/benchjson wraps it as a
// stdin→JSON filter; keeping the parser here makes it testable and
// reusable (the CI bench smoke consumes the same format).
package benchjson

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Result is one benchmark line, e.g.
//
//	BenchmarkWorkerResyncReplayLocal-4  250000  4614 ns/op  0 B/op  0 allocs/op
type Result struct {
	Pkg        string `json:"pkg"`
	Name       string `json:"name"`
	Procs      int    `json:"procs,omitempty"` // the -N GOMAXPROCS suffix
	Iterations int64  `json:"iterations"`

	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`

	// Extra ReportMetric units (keyed by unit string), if any.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Report is the whole parsed run: host metadata from the go-test
// headers plus every benchmark result, in input order.
type Report struct {
	Goos       string   `json:"goos,omitempty"`
	Goarch     string   `json:"goarch,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

// Tee returns a line source over sc that echoes each consumed line
// (with its newline) to w, so a pipeline stays observable while being
// parsed.
func Tee(sc *bufio.Scanner, w io.Writer) func() (string, bool) {
	return func() (string, bool) {
		if !sc.Scan() {
			return "", false
		}
		line := sc.Text()
		fmt.Fprintln(w, line)
		return line, true
	}
}

// Parse consumes lines until the source is exhausted. Non-benchmark
// lines (PASS, ok, test log output) are skipped; goos/goarch/cpu/pkg
// headers update the metadata applied to subsequent results.
func Parse(next func() (string, bool)) (*Report, error) {
	r := &Report{Benchmarks: []Result{}}
	pkg := ""
	for {
		line, ok := next()
		if !ok {
			return r, nil
		}
		switch {
		case strings.HasPrefix(line, "goos: "):
			r.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			r.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			r.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "Benchmark"):
			res, ok, err := parseResult(line)
			if err != nil {
				return nil, err
			}
			if ok {
				res.Pkg = pkg
				r.Benchmarks = append(r.Benchmarks, res)
			}
		}
	}
}

// parseResult parses one result line. ok=false for lines that start
// with "Benchmark" but are not results (e.g. a benchmark's own log
// output); an error means a line that looked like a result but had a
// malformed measurement pair.
func parseResult(line string) (Result, bool, error) {
	f := strings.Fields(line)
	if len(f) < 4 || len(f)%2 != 0 {
		return Result{}, false, nil
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Result{}, false, nil
	}
	res := Result{Name: f[0], Iterations: iters}
	if i := strings.LastIndex(f[0], "-"); i >= 0 {
		if procs, err := strconv.Atoi(f[0][i+1:]); err == nil {
			res.Name, res.Procs = f[0][:i], procs
		}
	}
	for i := 2; i+1 < len(f); i += 2 {
		val, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Result{}, false, fmt.Errorf("benchjson: bad measurement %q in %q", f[i], line)
		}
		switch unit := f[i+1]; unit {
		case "ns/op":
			res.NsPerOp = val
		case "B/op":
			res.BytesPerOp = int64(val)
		case "allocs/op":
			res.AllocsPerOp = int64(val)
		default:
			if res.Metrics == nil {
				res.Metrics = map[string]float64{}
			}
			res.Metrics[unit] = val
		}
	}
	return res, true, nil
}
