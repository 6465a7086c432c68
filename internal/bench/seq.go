package bench

import (
	"fmt"

	"repro/internal/logic"
)

// SeqConfig controls sequential (ISCAS89-class) benchmark generation.
type SeqConfig struct {
	Config
	FFs int // number of D flip-flops
}

// seqSuite mirrors the published shape of a slice of the ISCAS89
// suite (inputs/outputs/FFs/gates/depth); the synthetic stand-ins
// carry a "q" prefix.
var seqSuite = []struct {
	name         string
	in, out, ffs int
	gates, depth int
}{
	{"q344", 9, 11, 15, 160, 14},
	{"q1423", 17, 5, 74, 657, 20},
	{"q5378", 35, 49, 164, 2779, 25},
}

// SeqSuiteNames returns the synthetic sequential suite names in size
// order.
func SeqSuiteNames() []string {
	names := make([]string, len(seqSuite))
	for i, e := range seqSuite {
		names[i] = e.name
	}
	return names
}

// SeqSuiteConfig returns the generation config for the named
// sequential suite circuit ("q344" … "q5378").
func SeqSuiteConfig(name string) (SeqConfig, error) {
	for _, e := range seqSuite {
		if e.name == name {
			return SeqConfig{
				Config: Config{
					Name:    e.name,
					Inputs:  e.in,
					Outputs: e.out,
					Gates:   e.gates,
					Depth:   e.depth,
					Seed:    int64(e.gates)*104729 + int64(e.ffs),
				},
				FFs: e.ffs,
			}, nil
		}
	}
	return SeqConfig{}, fmt.Errorf("bench: unknown sequential suite circuit %q (have %v)", name, SeqSuiteNames())
}

// GenerateSeq builds a random sequential circuit: FFs and primary
// inputs form the launch plane, a levelized combinational cloud is
// grown as in Generate, each flip-flop's data pin is wired to a
// late-level signal (creating the state feedback loops), and the
// remaining sinks become primary outputs. Deterministic per config.
func GenerateSeq(cfg SeqConfig) (*logic.Circuit, error) {
	if cfg.FFs < 1 {
		return nil, fmt.Errorf("bench: GenerateSeq needs >= 1 FF, got %d", cfg.FFs)
	}
	if cfg.Inputs+cfg.FFs < 4 {
		return nil, fmt.Errorf("bench: GenerateSeq needs inputs+FFs >= 4 (max gate arity)")
	}
	if cfg.Outputs < 1 || cfg.Depth < 2 || cfg.Gates < cfg.Depth {
		return nil, fmt.Errorf("bench: GenerateSeq: bad shape (outputs %d, depth %d, gates %d)",
			cfg.Outputs, cfg.Depth, cfg.Gates)
	}
	g, err := newGrower(cfg.Config)
	if err != nil {
		return nil, err
	}
	ffs := make([]int, cfg.FFs)
	for i := range ffs {
		id, err := g.c.AddDff(fmt.Sprintf("F%d", i+1))
		if err != nil {
			return nil, err
		}
		ffs[i] = id
		g.levels[0] = append(g.levels[0], id)
	}
	if err := g.cloud(levelSizes(cfg.Config, cfg.Outputs+cfg.FFs)); err != nil {
		return nil, err
	}

	// Wire the state feedback: each FF's data pin takes a late-level
	// signal, preferring sinks so the cloud stays live.
	var sinks []int
	for _, gt := range g.c.Gates() {
		if gt.Type != logic.Input && gt.Type != logic.Dff && len(gt.Fanout) == 0 {
			sinks = append(sinks, gt.ID)
		}
	}
	si := 0
	for _, f := range ffs {
		var driver int
		if si < len(sinks) {
			driver = sinks[si]
			si++
		} else {
			top := g.levels[cfg.Depth]
			if len(top) == 0 {
				top = g.levels[cfg.Depth-1]
			}
			driver = top[g.rng.Intn(len(top))]
		}
		if err := g.c.ConnectDff(f, driver); err != nil {
			return nil, err
		}
		g.covered[driver] = true
	}
	sinks = sinks[si:]

	// Fold unused launch signals (PIs and FF outputs) into the cloud;
	// the remaining sinks become primary outputs.
	last, err := g.fold()
	if err != nil {
		return nil, err
	}
	if last >= 0 {
		sinks = append(sinks, last)
	}
	return g.finish(sinks, cfg.Outputs)
}
