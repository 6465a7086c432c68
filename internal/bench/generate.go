package bench

import (
	"fmt"
	"math/rand"

	"repro/internal/logic"
)

// Config controls synthetic benchmark generation. Generation is fully
// deterministic for a given Config (including Seed).
type Config struct {
	Name    string
	Inputs  int // number of primary inputs
	Outputs int // number of primary outputs
	Gates   int // target logic-gate count (achieved within a few %)
	Depth   int // target logic depth
	Seed    int64
}

// suiteEntry records the structural statistics of one classic ISCAS85
// circuit, used to generate a synthetic stand-in of matching shape.
type suiteEntry struct {
	name           string
	in, out, gates int
	depth          int
}

// iscas85Suite mirrors the published characteristics of the ISCAS85
// benchmark suite (inputs/outputs/gates/depth). The synthetic circuits
// carry an "s" prefix to make clear they are stand-ins, not the real
// netlists (see DESIGN.md §3).
var iscas85Suite = []suiteEntry{
	{"s432", 36, 7, 160, 17},
	{"s499", 41, 32, 202, 11},
	{"s880", 60, 26, 383, 24},
	{"s1355", 41, 32, 546, 24},
	{"s1908", 33, 25, 880, 40},
	{"s2670", 233, 140, 1193, 32},
	{"s3540", 50, 22, 1669, 47},
	{"s5315", 178, 123, 2307, 49},
	{"s6288", 32, 32, 2416, 124},
	{"s7552", 207, 108, 3512, 43},
}

// SuiteNames returns the names of the synthetic ISCAS85-class suite in
// size order.
func SuiteNames() []string {
	names := make([]string, len(iscas85Suite))
	for i, e := range iscas85Suite {
		names[i] = e.name
	}
	return names
}

// SuiteConfig returns the generation config for the named suite
// circuit ("s432" … "s7552").
func SuiteConfig(name string) (Config, error) {
	for _, e := range iscas85Suite {
		if e.name == name {
			return Config{
				Name:    e.name,
				Inputs:  e.in,
				Outputs: e.out,
				Gates:   e.gates,
				Depth:   e.depth,
				Seed:    int64(e.gates)*7919 + int64(e.depth), // deterministic per circuit
			}, nil
		}
	}
	return Config{}, fmt.Errorf("bench: unknown suite circuit %q (have %v)", name, SuiteNames())
}

// GenerateNamed builds the named circuit of either synthetic suite:
// combinational ("s432" … "s7552") or sequential ("q344" … "q5378").
func GenerateNamed(name string) (*logic.Circuit, error) {
	if cfg, err := SuiteConfig(name); err == nil {
		return Generate(cfg)
	}
	if cfg, err := SeqSuiteConfig(name); err == nil {
		return GenerateSeq(cfg)
	}
	return nil, fmt.Errorf("bench: unknown suite circuit %q (have %v and %v)",
		name, SuiteNames(), SeqSuiteNames())
}

// typeWeights is the gate-type mix of the generator, approximating the
// NAND/NOR-dominated composition of the ISCAS85 suite.
var typeWeights = []struct {
	ty logic.GateType
	w  int
}{
	{logic.Nand2, 28},
	{logic.Nand3, 8},
	{logic.Nand4, 4},
	{logic.Nor2, 14},
	{logic.Nor3, 4},
	{logic.Inv, 16},
	{logic.And2, 8},
	{logic.And3, 3},
	{logic.Or2, 7},
	{logic.Or3, 2},
	{logic.Xor2, 4},
	{logic.Xnor2, 2},
	{logic.Buf, 2},
}

func pickType(rng *rand.Rand) logic.GateType {
	total := 0
	for _, tw := range typeWeights {
		total += tw.w
	}
	r := rng.Intn(total)
	for _, tw := range typeWeights {
		r -= tw.w
		if r < 0 {
			return tw.ty
		}
	}
	return logic.Nand2
}

// Generate builds a random levelized circuit matching the config:
// Depth levels of logic, fanins drawn mostly from the immediately
// preceding level (with a geometric tail reaching further back, which
// produces the reconvergent-fanout structure real circuits have), and
// a fanin-selection bias toward not-yet-used signals so that nearly
// all logic is live. Gates left without fanout beyond the requested
// output count are merged by a small NAND reduction tree, so the final
// circuit validates (every gate reaches a primary output).
func Generate(cfg Config) (*logic.Circuit, error) {
	if cfg.Inputs < 4 {
		return nil, fmt.Errorf("bench: Generate needs >= 4 inputs (max gate arity), got %d", cfg.Inputs)
	}
	if cfg.Outputs < 1 {
		return nil, fmt.Errorf("bench: Generate needs >= 1 output, got %d", cfg.Outputs)
	}
	if cfg.Depth < 2 {
		return nil, fmt.Errorf("bench: Generate needs depth >= 2, got %d", cfg.Depth)
	}
	if cfg.Gates < cfg.Depth {
		return nil, fmt.Errorf("bench: Generate needs gates (%d) >= depth (%d)", cfg.Gates, cfg.Depth)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	c := logic.New(cfg.Name)

	levels := make([][]int, cfg.Depth+1)
	for i := 0; i < cfg.Inputs; i++ {
		id, err := c.AddInput(fmt.Sprintf("I%d", i+1))
		if err != nil {
			return nil, err
		}
		levels[0] = append(levels[0], id)
	}

	// Distribute gates over levels: roughly uniform, with the last
	// level sized near the output count so the sink set is small.
	perLevel := make([]int, cfg.Depth+1)
	last := cfg.Outputs
	if last > cfg.Gates/2 {
		last = cfg.Gates / 2
	}
	if last < 1 {
		last = 1
	}
	remaining := cfg.Gates - last
	for l := 1; l < cfg.Depth; l++ {
		share := remaining / (cfg.Depth - l)
		if share < 1 {
			share = 1
		}
		perLevel[l] = share
		remaining -= share
	}
	perLevel[cfg.Depth] = last + remaining // fold any rounding residue

	covered := make(map[int]bool) // signals that already drive something
	gateNo := 0
	for l := 1; l <= cfg.Depth; l++ {
		for i := 0; i < perLevel[l]; i++ {
			ty := pickType(rng)
			k := ty.Arity()
			fanin, err := pickFanins(rng, levels, l, k, covered)
			if err != nil {
				return nil, err
			}
			gateNo++
			id, err := c.AddGate(fmt.Sprintf("N%d", gateNo), ty, fanin...)
			if err != nil {
				return nil, err
			}
			levels[l] = append(levels[l], id)
			for _, f := range fanin {
				covered[f] = true
			}
		}
	}

	// Any primary input the random fanin selection left unused must
	// still drive logic (Validate requires every node to reach an
	// output, as in the real suite). Fold uncovered inputs pairwise —
	// and finally into a covered signal — with NAND2 gates; the new
	// gates join the sink set handled below.
	var loose []int
	for _, id := range c.Inputs() {
		if !covered[id] {
			loose = append(loose, id)
		}
	}
	// FIFO pairing yields a balanced tree (logarithmic extra depth).
	for head := 0; head < len(loose); {
		a := loose[head]
		head++
		b := levels[1][rng.Intn(len(levels[1]))]
		if head < len(loose) {
			b = loose[head]
			head++
		}
		gateNo++
		id, err := c.AddGate(fmt.Sprintf("N%d", gateNo), logic.Nand2, a, b)
		if err != nil {
			return nil, err
		}
		covered[a] = true
		covered[b] = true
		if head < len(loose) {
			loose = append(loose, id) // keep merging until one signal remains
		}
		// The final merged gate is a sink and is picked up by the sink
		// scan below.
	}

	// Collect sinks (gates with no fanout). Reduce the surplus beyond
	// cfg.Outputs with a NAND2 tree, then mark outputs.
	var sinks []int
	for _, g := range c.Gates() {
		if g.Type != logic.Input && len(g.Fanout) == 0 {
			sinks = append(sinks, g.ID)
		}
	}
	// FIFO pairing again, so surplus sinks fold in logarithmic depth.
	head := 0
	for len(sinks)-head > cfg.Outputs {
		a := sinks[head]
		b := sinks[head+1]
		head += 2
		gateNo++
		id, err := c.AddGate(fmt.Sprintf("N%d", gateNo), logic.Nand2, a, b)
		if err != nil {
			return nil, err
		}
		sinks = append(sinks, id)
	}
	sinks = sinks[head:]
	for _, s := range sinks {
		if err := c.MarkOutput(s); err != nil {
			return nil, err
		}
	}
	// If there are fewer sinks than requested outputs, tap internal
	// nets as additional outputs (legal in .bench: an output signal may
	// also have internal fanout).
	if c.NumOutputs() < cfg.Outputs {
		for _, lvl := range [][]int{levels[cfg.Depth], levels[cfg.Depth-1]} {
			for _, id := range lvl {
				if c.NumOutputs() >= cfg.Outputs {
					break
				}
				if err := c.MarkOutput(id); err != nil {
					return nil, err
				}
			}
		}
		for l := cfg.Depth - 2; l >= 1 && c.NumOutputs() < cfg.Outputs; l-- {
			for _, id := range levels[l] {
				if c.NumOutputs() >= cfg.Outputs {
					break
				}
				if err := c.MarkOutput(id); err != nil {
					return nil, err
				}
			}
		}
	}

	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("bench: generated circuit invalid: %v", err)
	}
	if err := c.PlaceGrid(); err != nil {
		return nil, err
	}
	return c, nil
}

// pickFanins selects k distinct driver signals for a gate at level l.
// Each pick comes from level l-1 with probability ~0.7, otherwise from
// a geometrically decaying distribution over earlier levels; within a
// level, uncovered (fanout-free) signals are preferred half the time so
// that little logic is left dangling.
func pickFanins(rng *rand.Rand, levels [][]int, l, k int, covered map[int]bool) ([]int, error) {
	chooseLevel := func() []int {
		src := l - 1
		if rng.Float64() >= 0.7 {
			// geometric walk further back
			for src > 0 && rng.Float64() < 0.5 {
				src--
			}
		}
		for src >= 0 && len(levels[src]) == 0 {
			src--
		}
		if src < 0 {
			src = 0
		}
		return levels[src]
	}
	fanin := make([]int, 0, k)
	used := make(map[int]bool, k)
	for len(fanin) < k {
		pool := chooseLevel()
		var cand int
		if rng.Float64() < 0.5 {
			// prefer an uncovered signal from this pool if one exists
			cand = -1
			start := rng.Intn(len(pool))
			for i := 0; i < len(pool); i++ {
				id := pool[(start+i)%len(pool)]
				if !covered[id] && !used[id] {
					cand = id
					break
				}
			}
			if cand == -1 {
				cand = pool[rng.Intn(len(pool))]
			}
		} else {
			cand = pool[rng.Intn(len(pool))]
		}
		if used[cand] {
			// fall back to a linear scan over all earlier levels for a
			// fresh signal; guaranteed to succeed while the total
			// number of distinct earlier signals >= k, which holds
			// because Inputs >= 2 and arity <= 4 with level sizes >= 1.
			found := false
			for src := l - 1; src >= 0 && !found; src-- {
				for _, id := range levels[src] {
					if !used[id] {
						cand, found = id, true
						break
					}
				}
			}
			if !found {
				return nil, fmt.Errorf("bench: cannot find %d distinct fanins at level %d", k, l)
			}
		}
		used[cand] = true
		fanin = append(fanin, cand)
	}
	return fanin, nil
}
