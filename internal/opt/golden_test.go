package opt_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/exp"
	"repro/internal/opt"
	"repro/internal/scenario"
	"repro/internal/tech"
)

// -update regenerates the pinned scoreboard from the current code:
//
//	go test ./internal/opt -run TestCrossFlowGoldenScoreboard -update
//
// Only do this deliberately — the whole point of the file is to freeze
// the optimizer trajectories across refactors.
var update = flag.Bool("update", false, "regenerate testdata/golden_scoreboard.json")

// goldenEntry pins one scoreboard row. Floats are recorded as Go hex
// float strings (strconv 'x' format), so equality is bit-for-bit: any
// change to the optimizers' move sequences — reordered candidate
// scoring, a different blacklist reset point, drift in the incremental
// caches — shows up as a failure here, not as silent behaviour drift.
type goldenEntry struct {
	Circuit string `json:"circuit"`

	// Table 2 (deterministic recovery, combinational).
	SizedLeakNW string `json:"sized_leak_nw,omitempty"`
	FullLeakNW  string `json:"full_leak_nw,omitempty"`
	VthSwaps    int    `json:"vth_swaps,omitempty"`
	SizeDowns   int    `json:"size_downs,omitempty"`

	// Table 3 / S1 (deterministic vs statistical scoreboard).
	DetQ99NW   string `json:"det_q99_nw,omitempty"`
	DetMeanNW  string `json:"det_mean_nw,omitempty"`
	StatQ99NW  string `json:"stat_q99_nw,omitempty"`
	StatMeanNW string `json:"stat_mean_nw,omitempty"`
	StatYield  string `json:"stat_yield,omitempty"`
	StatMoves  int    `json:"stat_moves,omitempty"`

	// S1 extra: flip-flops ending HVT in the statistical design.
	HVTFFs int `json:"hvt_ffs,omitempty"`
}

type goldenFile struct {
	Note  string                   `json:"note"`
	Table map[string][]goldenEntry `json:"tables"`
}

func hexf(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }

const goldenPath = "testdata/golden_scoreboard.json"

// computeGolden reruns the T2/T3/S1 scoreboard flows on the small end
// of both synthetic suites (no Monte Carlo — the analytic scoreboard is
// what the optimizers steer by and is deterministic). mutate, when
// non-nil, adjusts every prepared Options before the optimizers run —
// the hook the scenario-equivalence test uses to route the same flows
// through a 1×1 corner family.
func computeGolden(t testing.TB, mutate func(*opt.Options)) *goldenFile {
	t.Helper()
	ctx := exp.NewContext(io.Discard)
	adjust := func(pr *exp.Prepared) {
		if mutate != nil {
			mutate(&pr.Opt)
		}
	}
	out := &goldenFile{
		Note: "pinned pre-refactor optimizer scoreboard (PR 3 seed); " +
			"regenerate only deliberately with -update",
		Table: map[string][]goldenEntry{},
	}

	for _, name := range []string{"s432", "s880"} {
		pr, err := ctx.Prepare(name, nil)
		if err != nil {
			t.Fatal(err)
		}
		adjust(pr)

		// Table 2: sizing-only reference vs full deterministic recovery.
		sized := pr.Base.Clone()
		oRef := pr.Opt
		oRef.EnableVth = false
		if _, err := opt.Deterministic(sized, oRef); err != nil {
			t.Fatal(err)
		}
		full := pr.Base.Clone()
		res, err := opt.Deterministic(full, pr.Opt)
		if err != nil {
			t.Fatal(err)
		}
		out.Table["t2"] = append(out.Table["t2"], goldenEntry{
			Circuit:     name,
			SizedLeakNW: hexf(sized.TotalLeak()),
			FullLeakNW:  hexf(full.TotalLeak()),
			VthSwaps:    res.VthSwaps,
			SizeDowns:   res.SizeDowns,
		})

		// Table 3: the headline pair on the statistical scoreboard.
		pair, err := exp.RunPair(pr)
		if err != nil {
			t.Fatal(err)
		}
		out.Table["t3"] = append(out.Table["t3"], goldenEntry{
			Circuit:    name,
			DetQ99NW:   hexf(pair.DetEval.LeakPctNW),
			DetMeanNW:  hexf(pair.DetEval.LeakMeanNW),
			StatQ99NW:  hexf(pair.StatRes.LeakPctNW),
			StatMeanNW: hexf(pair.StatRes.LeakMeanNW),
			StatYield:  hexf(pair.StatRes.YieldAtTmax),
			StatMoves:  pair.StatRes.Moves,
		})
	}

	// S1: the sequential pair (flip-flops join the move set).
	for _, name := range []string{"q344"} {
		pr, err := ctx.PrepareSeq(name)
		if err != nil {
			t.Fatal(err)
		}
		adjust(pr)
		pair, err := exp.RunPair(pr)
		if err != nil {
			t.Fatal(err)
		}
		hvtFF := 0
		for _, f := range pair.Stat.Circuit.Dffs() {
			if pair.Stat.Vth[f] == tech.HighVth {
				hvtFF++
			}
		}
		out.Table["s1"] = append(out.Table["s1"], goldenEntry{
			Circuit:   name,
			DetQ99NW:  hexf(pair.DetEval.LeakPctNW),
			StatQ99NW: hexf(pair.StatRes.LeakPctNW),
			StatYield: hexf(pair.StatRes.YieldAtTmax),
			StatMoves: pair.StatRes.Moves,
			HVTFFs:    hvtFF,
		})
	}
	return out
}

// TestCrossFlowGoldenScoreboard guards the search-driver refactor: the
// policy-based optimizers must retrace the pre-refactor move sequences
// exactly, so the T2/T3/S1 scoreboard numbers — pinned here from the
// seed code as hex floats — must match bit-for-bit.
func TestCrossFlowGoldenScoreboard(t *testing.T) {
	got := computeGolden(t, nil)

	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", goldenPath)
		return
	}
	compareGolden(t, got, "scoreboard drifted from pre-refactor golden")
}

// TestNominalMatrixGoldenEquivalence is the scenario-family equivalence
// guard: routing every golden flow through a 1×1 nominal corner matrix
// must reproduce the single-engine trajectories bit-for-bit — same
// moves, same hex-float scoreboard — because the family's only corner
// evaluates the base design through the identical engine code path.
func TestNominalMatrixGoldenEquivalence(t *testing.T) {
	if *update {
		t.Skip("golden file is regenerated by TestCrossFlowGoldenScoreboard")
	}
	got := computeGolden(t, func(o *opt.Options) { o.Scenario = scenario.Nominal() })
	compareGolden(t, got, "1×1 scenario family diverged from the single-engine golden")
}

// TestSerialConfigGoldenEquivalence recomputes the scoreboard on a
// single-proc scheduler. The search driver and its candidate scoring
// run on the caller's goroutine, so the trajectories must not depend
// on GOMAXPROCS: one proc must reproduce the golden bit for bit.
func TestSerialConfigGoldenEquivalence(t *testing.T) {
	if *update {
		t.Skip("golden file is regenerated by TestCrossFlowGoldenScoreboard")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	got := computeGolden(t, nil)
	compareGolden(t, got, "single-proc run diverged from the pinned trajectory")
}

// compareGolden checks a freshly computed scoreboard against the pinned
// golden file, field-exact.
func compareGolden(t *testing.T, got *goldenFile, msg string) {
	t.Helper()
	buf, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update on a trusted tree): %v", err)
	}
	var want goldenFile
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	for table, rows := range want.Table {
		gotRows := got.Table[table]
		if len(gotRows) != len(rows) {
			t.Fatalf("%s: %d rows, golden has %d", table, len(gotRows), len(rows))
		}
		for i, w := range rows {
			g := gotRows[i]
			if g != w {
				t.Errorf("%s[%s]: %s\n got: %s\nwant: %s",
					table, w.Circuit, msg, describe(g), describe(w))
			}
		}
	}
}

func describe(e goldenEntry) string {
	b, _ := json.Marshal(e)
	// Append the decoded floats so a mismatch is human-readable.
	dec := func(s string) string {
		if s == "" {
			return ""
		}
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return "?"
		}
		return fmt.Sprintf("%.6g", v)
	}
	return fmt.Sprintf("%s (det q99 %s, stat q99 %s, sized %s, full %s)",
		b, dec(e.DetQ99NW), dec(e.StatQ99NW), dec(e.SizedLeakNW), dec(e.FullLeakNW))
}
