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

	// Table 2 (deterministic recovery, combinational); the scenario
	// table's deterministic rows and the sizing table reuse FullLeakNW
	// for the final design's TotalLeak.
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

	// Scenario table: the deterministic optimizer's accepted moves.
	DetMoves int `json:"det_moves,omitempty"`
}

type goldenFile struct {
	Note  string                   `json:"note"`
	Table map[string][]goldenEntry `json:"tables"`
}

func hexf(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }

const goldenPath = "testdata/golden_scoreboard.json"

// computeGolden reruns the T2/T3/S1 scoreboard flows, plus a
// sizing-only statistical run per combinational circuit, on the small
// end of both synthetic suites (no Monte Carlo — the analytic
// scoreboard is what the optimizers steer by and is deterministic).
// mutate, when non-nil, adjusts every prepared Options before the
// optimizers run — the hook the scenario-equivalence test uses to route
// the same flows through a 1×1 corner family. The "scenario" table is
// computeScenarioGolden's.
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

		// Sizing-only statistical run at Tmax = 1.5·Dmin. Every gate
		// starts at the minimum size and meets it, so the first
		// margins' phase B finds no candidate: the margin sweep's exact
		// leakage query is the first to build the leakage accumulator
		// the later margins score against.
		oSz := pr.Opt
		oSz.EnableVth = false
		oSz.TmaxPs = 1.5 * pr.DminPs
		sz := pr.Base.Clone()
		szRes, err := opt.Statistical(sz, oSz)
		if err != nil {
			t.Fatal(err)
		}
		out.Table["sizing"] = append(out.Table["sizing"], goldenEntry{
			Circuit:    name,
			FullLeakNW: hexf(sz.TotalLeak()),
			SizeDowns:  szRes.SizeDowns,
			StatQ99NW:  hexf(szRes.LeakPctNW),
			StatMoves:  szRes.Moves,
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

// computeScenarioGolden reruns the "scenario" table: s432 under
// scenario specs, each at its constraint and at 1.3× it. Each run sets
// its own spec, so computeGolden's mutate hook never reaches them.
//
//   - The 4-corner statistical run of TestScenarioStatisticalFourCorner.
//     At the constraint the vl corners stop phase A short of the yield
//     target and phase B never runs; the looser run reaches phase B's
//     candidate scan, where corner 0 is a view with its own library and
//     the scan must still read the base design.
//   - The deterministic optimizer under {vh, vn}: corner 0 is the vh
//     view with its own library, so the recovery scan must read the
//     base design's loads and corner delays, not corner 0's.
//   - Both optimizers under a body-biased, weighted {vn, vh} spec: two
//     bias domains at different values, so every corner is a biased
//     view, and the objective is the mean over corners.
func computeScenarioGolden(t testing.TB) []goldenEntry {
	t.Helper()
	pr, err := exp.NewContext(io.Discard).Prepare("s432", nil)
	if err != nil {
		t.Fatal(err)
	}
	biased := &scenario.Spec{Corners: []string{"vn", "vh"}, BiasDomains: 2,
		Bias: []float64{0.1, 0.2}, Aggregate: "weighted"}
	runs := []struct {
		label string
		spec  *scenario.Spec
		det   bool
	}{
		{"s432", &scenario.Spec{Temps: []float64{0, 110}, Corners: []string{"vl", "vh"}}, false},
		{"s432 deterministic {vh,vn}", &scenario.Spec{Corners: []string{"vh", "vn"}}, true},
		{"s432 biased weighted {vn,vh}", biased, false},
		{"s432 deterministic biased weighted {vn,vh}", biased, true},
	}
	var rows []goldenEntry
	for _, r := range runs {
		for i, label := range []string{r.label, r.label + " at 1.3x Tmax"} {
			o := pr.Opt
			o.Scenario = r.spec
			if i == 1 {
				o.TmaxPs *= 1.3
			}
			d := pr.Base.Clone()
			if r.det {
				res, err := opt.Deterministic(d, o)
				if err != nil {
					t.Fatal(err)
				}
				rows = append(rows, goldenEntry{
					Circuit:    label,
					FullLeakNW: hexf(d.TotalLeak()),
					VthSwaps:   res.VthSwaps,
					SizeDowns:  res.SizeDowns,
					DetMoves:   res.Moves,
				})
				continue
			}
			res, err := opt.Statistical(d, o)
			if err != nil {
				t.Fatal(err)
			}
			rows = append(rows, goldenEntry{
				Circuit:    label,
				VthSwaps:   res.VthSwaps,
				SizeDowns:  res.SizeDowns,
				StatQ99NW:  hexf(res.LeakPctNW),
				StatMeanNW: hexf(res.LeakMeanNW),
				StatYield:  hexf(res.YieldAtTmax),
				StatMoves:  res.Moves,
			})
		}
	}
	return rows
}

// TestCrossFlowGoldenScoreboard guards the search-driver refactor: the
// policy-based optimizers must retrace the pre-refactor move sequences
// exactly, so the T2/T3/S1 scoreboard numbers — pinned here from the
// seed code as hex floats — must match bit-for-bit. With -update it
// rewrites the whole file, the "scenario" table included.
func TestCrossFlowGoldenScoreboard(t *testing.T) {
	got := computeGolden(t, nil)

	if *update {
		got.Table["scenario"] = computeScenarioGolden(t)
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

// TestScenarioGolden checks the "scenario" table: the optimizers under
// multi-corner, body-biased and weighted scenario specs must retrace
// the pinned runs bit for bit. It is the golden check the race-detector
// scenario suite (make scenario) runs.
func TestScenarioGolden(t *testing.T) {
	if *update {
		t.Skip("golden file is regenerated by TestCrossFlowGoldenScoreboard")
	}
	got := &goldenFile{Table: map[string][]goldenEntry{"scenario": computeScenarioGolden(t)}}
	compareGolden(t, got, "scenario run drifted from the pinned golden")
}

// TestNominalMatrixGoldenEquivalence is the scenario-family equivalence
// guard: routing every golden flow through the empty scenario spec,
// whose one corner "vn_tn" is the nominal operating point, must
// reproduce the single-engine trajectories bit-for-bit — same moves,
// same hex-float scoreboard — because the family's only corner
// evaluates the base design through the identical engine code path.
func TestNominalMatrixGoldenEquivalence(t *testing.T) {
	if *update {
		t.Skip("golden file is regenerated by TestCrossFlowGoldenScoreboard")
	}
	got := computeGolden(t, func(o *opt.Options) { o.Scenario = &scenario.Spec{} })
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
	got.Table["scenario"] = computeScenarioGolden(t)
	compareGolden(t, got, "single-proc run diverged from the pinned trajectory")
}

// compareGolden checks every table of a freshly computed scoreboard
// against the pinned golden file, field-exact.
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
	for table, gotRows := range got.Table {
		rows := want.Table[table]
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
