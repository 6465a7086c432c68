package exp

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/opt"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/tech"
)

// fastCtx returns a context small enough for unit testing.
func fastCtx(buf *bytes.Buffer) *Context {
	ctx := NewContext(buf)
	ctx.Benchmarks = []string{"s432"}
	ctx.MCSamples = 300
	return ctx
}

func TestPrepare(t *testing.T) {
	var buf bytes.Buffer
	ctx := fastCtx(&buf)
	pr, err := ctx.Prepare("s432", nil)
	if err != nil {
		t.Fatal(err)
	}
	if pr.DminPs <= 0 {
		t.Error("Dmin not positive")
	}
	if pr.TmaxPs <= pr.DminPs {
		t.Error("Tmax not above Dmin")
	}
	if pr.Base.CountHVT() != 0 {
		t.Error("prepared design not all-LVT")
	}
	if _, err := ctx.Prepare("nope", nil); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

// TestTable1FullSuite renders Table 1 over the full ten-circuit suite
// and requires it to equal the first block of the committed
// experiments_output.txt byte for byte. Table 1 has no wall-clock
// column, so this pins Dmin — the greedy minimum-delay sizing — on
// every suite circuit.
func TestTable1FullSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var buf bytes.Buffer
	ctx := fastCtx(&buf)
	tb, err := ctx.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 10 {
		t.Errorf("Table1 has %d rows, want 10 (full suite)", len(tb.Rows))
	}
	var got bytes.Buffer
	if err := tb.Render(&got); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(got.String(), "s7552") {
		t.Error("Table1 missing s7552")
	}
	committed, err := os.ReadFile("../../experiments_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	want, _, ok := strings.Cut(string(committed), "\n\n")
	if !ok {
		t.Fatal("experiments_output.txt has no blank line after its first block")
	}
	if want += "\n\n"; got.String() != want {
		t.Errorf("Table 1 differs from the first block of experiments_output.txt\n got:\n%s\nwant:\n%s", got.String(), want)
	}
}

// TestTables2To4MatchCommittedOutput renders Tables 2, 3 and 4 with
// the settings `make experiments-output` uses (-benchmarks s432,s880
// -samples 500) and requires every cell to equal its block in the
// committed experiments_output.txt, except the wall-clock columns.
// This pins the deterministic and statistical optimizers' outcomes
// and the analytic-vs-Monte-Carlo errors the paper's tables report.
func TestTables2To4MatchCommittedOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	committed, err := os.ReadFile("../../experiments_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	blocks := strings.Split(string(committed), "\n\n")
	ctx := NewContext(io.Discard)
	ctx.Benchmarks = []string{"s432", "s880"}
	ctx.MCSamples = 500
	for _, tc := range []struct {
		table     func() (*report.Table, error)
		wallClock []string
	}{
		{ctx.Table2, []string{"time"}},
		{ctx.Table3, nil},
		{ctx.Table4, []string{"analytic [ms]", "MC [ms]", "speedup"}},
	} {
		tb, err := tc.table()
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := tb.Render(&got); err != nil {
			t.Fatal(err)
		}
		i := slices.IndexFunc(blocks, func(b string) bool { return strings.HasPrefix(b, tb.Title+"\n") })
		if i < 0 {
			t.Errorf("experiments_output.txt has no block titled %q", tb.Title)
			continue
		}
		var masked []int
		for _, col := range tc.wallClock {
			if j := slices.Index(tb.Columns, col); j >= 0 {
				masked = append(masked, j)
			} else {
				t.Fatalf("%s has no column %q", tb.Title, col)
			}
		}
		gotLines, wantLines := tableCells(got.String(), masked), tableCells(blocks[i], masked)
		if len(gotLines) != len(wantLines) {
			t.Errorf("%s: %d lines, committed %d\n got:\n%s\nwant:\n%s", tb.Title, len(gotLines), len(wantLines), got.String(), blocks[i])
			continue
		}
		for k := range gotLines {
			if !slices.Equal(gotLines[k], wantLines[k]) {
				t.Errorf("%s line %d: got %q, committed %q", tb.Title, k, gotLines[k], wantLines[k])
			}
		}
	}
}

// tableCells splits a rendered table into lines: a table row becomes
// its trimmed cells with the masked columns blanked, any other line
// stays whole. The dash rule is dropped, since its widths follow the
// masked cells.
func tableCells(block string, masked []int) [][]string {
	var out [][]string
	for _, line := range strings.Split(strings.TrimRight(block, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "|-"):
		case strings.HasPrefix(line, "|"):
			cells := strings.Split(line, "|")
			cells = cells[1 : len(cells)-1]
			for j := range cells {
				cells[j] = strings.TrimSpace(cells[j])
			}
			if len(out) > 1 { // below the header
				for _, j := range masked {
					cells[j] = ""
				}
			}
			out = append(out, cells)
		default:
			out = append(out, []string{line})
		}
	}
	return out
}

// TestTable3HeadlineShape asserts the paper's headline claim on s432
// and s880 at Tmax = 1.3·Dmin: the statistical design's q99 leakage is
// 15–50% below the deterministic design's, and the deterministic
// design's Monte Carlo timing yield meets η. The 15% floor is the
// paper's lower bound; the 50% ceiling catches a broken deterministic
// baseline, whose overdesign would inflate the gain.
func TestTable3HeadlineShape(t *testing.T) {
	var buf bytes.Buffer
	ctx := fastCtx(&buf)
	ctx.Benchmarks = []string{"s432", "s880"}
	tb, err := ctx.Table3()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != len(ctx.Benchmarks) {
		t.Fatalf("rows = %d, want %d", len(tb.Rows), len(ctx.Benchmarks))
	}
	eta := opt.DefaultOptions(1).YieldTarget
	for _, row := range tb.Rows {
		if row[1] == "infeasible" {
			t.Errorf("%s: a design misses Tmax", row[0])
			continue
		}
		if gain := cellFloat(t, row[7]); gain < 15 || gain > 50 {
			t.Errorf("%s: q99 improvement %.1f%% outside [15%%, 50%%]", row[0], gain)
		}
		if y := cellFloat(t, row[3]); y < eta {
			t.Errorf("%s: deterministic MC yield %.4f below η = %.2f", row[0], y, eta)
		}
	}
	if err := tb.Render(&buf); err != nil {
		t.Fatal(err)
	}
}

// TestFigure4GainRisesWithVariation asserts Figure 4's claim: the
// statistical optimizer's q99 advantage grows with σ(L)/L from 2% to
// 6%. Past 6% the gain saturates, so nothing is asserted there.
func TestFigure4GainRisesWithVariation(t *testing.T) {
	var buf bytes.Buffer
	s, err := fastCtx(&buf).Figure4()
	if err != nil {
		t.Fatal(err)
	}
	gain := s.Y[2] // improvement [%]
	prev := math.Inf(-1)
	for _, sig := range []float64{2, 4, 6} {
		i := slices.IndexFunc(s.X, func(x float64) bool { return stats.EqExact(x, sig) })
		if i < 0 {
			t.Fatalf("no point at σ/L = %g%% (have %v)", sig, s.X)
		}
		if gain[i] <= prev {
			t.Errorf("improvement at σ/L = %g%% is %.1f%%, not above %.1f%%", sig, gain[i], prev)
		}
		prev = gain[i]
	}
}

// cellFloat parses a numeric table cell, dropping a trailing "%".
func cellFloat(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
	if err != nil {
		t.Fatalf("cell %q is not a number: %v", cell, err)
	}
	return v
}

func TestRunUnknownID(t *testing.T) {
	var buf bytes.Buffer
	ctx := fastCtx(&buf)
	if err := ctx.Run("nope"); err == nil {
		t.Error("unknown experiment id accepted")
	}
}

func TestAblationLognormalSum(t *testing.T) {
	var buf bytes.Buffer
	ctx := fastCtx(&buf)
	tb, err := ctx.AblationLognormalSum()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 1 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// error columns should be tiny percentages
	for _, col := range []int{2, 3} {
		v := tb.Rows[0][col]
		if !strings.HasSuffix(v, "%") {
			t.Errorf("column %d = %q, want percentage", col, v)
		}
	}
	if err := tb.Render(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestTable2DeterministicRecovery(t *testing.T) {
	var buf bytes.Buffer
	ctx := fastCtx(&buf)
	tb, err := ctx.Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 1 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// The reduction column must be a solid positive percentage.
	red := tb.Rows[0][3]
	if !strings.HasSuffix(red, "%") || strings.HasPrefix(red, "-") {
		t.Errorf("reduction %q not positive", red)
	}
	if err := tb.Render(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestTable4ValidationErrorsSmall(t *testing.T) {
	var buf bytes.Buffer
	ctx := fastCtx(&buf)
	tb, err := ctx.Table4()
	if err != nil {
		t.Fatal(err)
	}
	// Mean-error columns (1 and 3) must be single-digit percentages.
	for _, col := range []int{1, 3} {
		v := strings.TrimSuffix(strings.TrimPrefix(tb.Rows[0][col], "-"), "%")
		var f float64
		if _, err := fmt.Sscanf(v, "%f", &f); err != nil {
			t.Fatalf("column %d = %q unparseable", col, tb.Rows[0][col])
		}
		if f > 9 {
			t.Errorf("column %d error %g%% too large", col, f)
		}
	}
}

// TestPrepareQ344: Prepare builds sequential suite circuits too.
func TestPrepareQ344(t *testing.T) {
	var buf bytes.Buffer
	pr, err := fastCtx(&buf).Prepare("q344", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !pr.Base.Circuit.Sequential() {
		t.Error("Prepare(q344) produced a combinational circuit")
	}
	if pr.DminPs <= 0 || pr.TmaxPs <= pr.DminPs {
		t.Error("bad Dmin/Tmax")
	}
}

func TestTechParamsOverride(t *testing.T) {
	var buf bytes.Buffer
	ctx := fastCtx(&buf)
	p, err := tech.Preset("70nm")
	if err != nil {
		t.Fatal(err)
	}
	ctx.TechParams = p
	pr, err := ctx.Prepare("s432", nil)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Base.Lib.P.Name != "generic-70nm" {
		t.Errorf("prepared with %s, want 70nm preset", pr.Base.Lib.P.Name)
	}
}

func TestFigure1Renders(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var buf bytes.Buffer
	ctx := fastCtx(&buf)
	s, err := ctx.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	if len(s.X) == 0 {
		t.Fatal("empty series")
	}
	// densities non-negative and both series sum to roughly the same
	// mass over the histogram support.
	var mcMass, fitMass float64
	for i := range s.X {
		if s.Y[0][i] < 0 || s.Y[1][i] < 0 {
			t.Fatal("negative density")
		}
		mcMass += s.Y[0][i]
		fitMass += s.Y[1][i]
	}
	if mcMass <= 0 || fitMass <= 0 {
		t.Fatal("zero mass")
	}
	ratio := mcMass / fitMass
	if ratio < 0.7 || ratio > 1.4 {
		t.Errorf("MC vs fit mass ratio %g; lognormal fit off", ratio)
	}
	if err := s.Render(&buf); err != nil {
		t.Fatal(err)
	}
}
