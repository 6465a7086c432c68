package verilog_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/bench"
	"repro/internal/logic"
	"repro/internal/verilog"
)

// netlistGolden holds the SHA-256 of the structure of every synthetic
// suite circuit and of three custom generator configs, each taken three
// ways: as generated, as parsed back from its .bench text, and as
// parsed back from its Verilog text. A changed hash means a generator
// or a parser now builds a different circuit — other gate IDs, names,
// pins, fanout order or placement — and every number computed on that
// circuit moves with it.
var netlistGolden = map[string]string{
	"s432/gen":       "285ce29493583e4545ffdd302729eb6f00340fd4b52045d7c16b15a35caf6078",
	"s432/bench":     "44e7fe06958cdf682d8e9e83552ac55731d3d6c66211277322aae7f880548dd2",
	"s432/verilog":   "44e7fe06958cdf682d8e9e83552ac55731d3d6c66211277322aae7f880548dd2",
	"s499/gen":       "c0515c5c5950b8b42e81b17f6c4f61184afc831af6512e2638f209f93a27eeab",
	"s499/bench":     "a89810e779a553fbbf4f0d96b25231eaab4a1447b08c58aee25a8ca7694cc282",
	"s499/verilog":   "a89810e779a553fbbf4f0d96b25231eaab4a1447b08c58aee25a8ca7694cc282",
	"s880/gen":       "d182bc521146d26d345c407723738e9fc6fe2977374386115a5a61f9b0e76852",
	"s880/bench":     "e9eb7da4e14a562bcdf3a03cae94f15e32e92961aae8bb17a54b305f42dae468",
	"s880/verilog":   "e9eb7da4e14a562bcdf3a03cae94f15e32e92961aae8bb17a54b305f42dae468",
	"s1355/gen":      "c022f08d4570799379cdc1436fe6b81d887f60b4692f9c8b596e9ae69aa6c290",
	"s1355/bench":    "f04cbe400975f892690f2ec389c449d005243fa612098284e2f61ac6cbe41715",
	"s1355/verilog":  "f04cbe400975f892690f2ec389c449d005243fa612098284e2f61ac6cbe41715",
	"s1908/gen":      "13234292a46f05e58f52a35101c97a36cb7848f65deea60608c8a08996efca37",
	"s1908/bench":    "4267895365eb9c0c2c7cc88cb6b8ac822ad05815af59f5f2d27ed86d46c733b2",
	"s1908/verilog":  "4267895365eb9c0c2c7cc88cb6b8ac822ad05815af59f5f2d27ed86d46c733b2",
	"s2670/gen":      "04c71999ab3d986d3fa2698ab0a812bfa4af1de82c8575887ee3214564f537a7",
	"s2670/bench":    "2cab4f202bfe846f2ff003ba6fcdf5e207c3917c9f31d539883ff2f8610e0358",
	"s2670/verilog":  "2cab4f202bfe846f2ff003ba6fcdf5e207c3917c9f31d539883ff2f8610e0358",
	"s3540/gen":      "90e15032373136d182c76dd05d70fbeca29301729e6ce8df497e6c1d61f16c70",
	"s3540/bench":    "241a732d51c8c984892d15dfd16ea5f90be2fbaac1fc56d6785427f017064019",
	"s3540/verilog":  "241a732d51c8c984892d15dfd16ea5f90be2fbaac1fc56d6785427f017064019",
	"s5315/gen":      "ec66194c6631bb8d34e3b9ad7368bae8db1e291ffd453ccaee7ea3bd2cd02c93",
	"s5315/bench":    "9a2446dc7e386d5513ee26b2258cf70256e32adce2e69a46842b73d2d542728f",
	"s5315/verilog":  "9a2446dc7e386d5513ee26b2258cf70256e32adce2e69a46842b73d2d542728f",
	"s6288/gen":      "a3b48e9ebd08e6861bf68ac76da5682b383bbed4b0a30eaabdafdf358c2d2cbb",
	"s6288/bench":    "5c078356641a8701f23af0a7798fadf07d5ebfb8aa3423b90b6954d93651d56e",
	"s6288/verilog":  "5c078356641a8701f23af0a7798fadf07d5ebfb8aa3423b90b6954d93651d56e",
	"s7552/gen":      "4d03a1f7fd48c311e7287889b7d56d1a7af9c8d905d9ae31d9458f0952512323",
	"s7552/bench":    "81881304765bc4b5abe844952408439376356d69e8d8ae04325a5d39ad4bbbd0",
	"s7552/verilog":  "81881304765bc4b5abe844952408439376356d69e8d8ae04325a5d39ad4bbbd0",
	"q344/gen":       "ea92928bd773acaf3578442395522f04f8c3950414d57052de53a3c6f07ce2fc",
	"q344/bench":     "1a978eb4e07cc5256bbdeb5cbe3937e7812785f75340095ff4c1bf879b7efd61",
	"q344/verilog":   "1a978eb4e07cc5256bbdeb5cbe3937e7812785f75340095ff4c1bf879b7efd61",
	"q1423/gen":      "115f545aa88ad1c9073a568c6ae1f65100ae476f5198ff24e2822404498d8afd",
	"q1423/bench":    "d00b0a0eed9cd43e8d0596119aefc826f8753e78d85e814d1892d3c853b845e4",
	"q1423/verilog":  "d00b0a0eed9cd43e8d0596119aefc826f8753e78d85e814d1892d3c853b845e4",
	"q5378/gen":      "3c64eacdabcbdbb8e95c6c07b2beda9e85cb14a494fab42d94ea1f832a0e7308",
	"q5378/bench":    "7170558925fc92b7e3f2d20ace7683d035a97c76606465b98cb227f29f1f40bd",
	"q5378/verilog":  "7170558925fc92b7e3f2d20ace7683d035a97c76606465b98cb227f29f1f40bd",
	"custom/gen":     "3d77919346f8213397145435f8d1675c00c01276a9ab7ccb080a582770f5bd53",
	"custom/bench":   "4b89181c2ca209e5c3b3e969b5d7956983a189f8fc75fcc713159575b9d4e72c",
	"custom/verilog": "4b89181c2ca209e5c3b3e969b5d7956983a189f8fc75fcc713159575b9d4e72c",
	"wide/gen":       "c8df7f70d7ba54fac2af1defe2d42ef4c1f0f0b3efa3475b09107bea0017af6d",
	"wide/bench":     "d49307968020f1786c47aea19327388d1d121c627c060661c0b50bc9186c78f6",
	"wide/verilog":   "d49307968020f1786c47aea19327388d1d121c627c060661c0b50bc9186c78f6",
	"seq/gen":        "b797c3b5832ee9032cf68f16bf3ac3ca465b0c746528d89bcd1a9ed3ac163b95",
	"seq/bench":      "ee9a33b5ee6a8f9990690e5f39fb314b4114a14cb7c6a32c2c8ac9c8ddb0fc6e",
	"seq/verilog":    "ee9a33b5ee6a8f9990690e5f39fb314b4114a14cb7c6a32c2c8ac9c8ddb0fc6e",
}

// customConfigs are benchgen's -gates path: a mid-size circuit, and a
// combinational and a sequential one whose unused launch signals need
// the NAND fold and whose sinks are too few for the requested outputs,
// so internal nets are tapped as outputs.
var customConfigs = []bench.SeqConfig{
	{Config: bench.Config{Name: "custom", Inputs: 32, Outputs: 8, Gates: 500, Depth: 20, Seed: 7}},
	{Config: bench.Config{Name: "wide", Inputs: 64, Outputs: 60, Gates: 90, Depth: 4, Seed: 3}},
	{Config: bench.Config{Name: "seq", Inputs: 5, Outputs: 30, Gates: 50, Depth: 5, Seed: 11}, FFs: 20},
}

// structureHash hashes a circuit's structure: per gate its ID, name,
// type, fanins, fanouts and placement bits, then the input, output and
// flip-flop ID lists.
func structureHash(c *logic.Circuit) string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	ints := func(xs []int) {
		put(uint64(len(xs)))
		for _, x := range xs {
			put(uint64(x))
		}
	}
	for _, g := range c.Gates() {
		put(uint64(g.ID))
		put(uint64(len(g.Name)))
		h.Write([]byte(g.Name))
		put(uint64(g.Type))
		ints(g.Fanin)
		ints(g.Fanout)
		put(math.Float64bits(g.X))
		put(math.Float64bits(g.Y))
	}
	ints(c.Inputs())
	ints(c.Outputs())
	ints(c.Dffs())
	return hex.EncodeToString(h.Sum(nil))
}

// TestNetlistGolden pins the structure of every suite circuit, and of
// the custom configs, as generated and as parsed back from both
// interchange formats.
func TestNetlistGolden(t *testing.T) {
	type gen struct {
		name string
		make func() (*logic.Circuit, error)
	}
	var gens []gen
	for _, name := range append(bench.SuiteNames(), bench.SeqSuiteNames()...) {
		gens = append(gens, gen{name, func() (*logic.Circuit, error) { return bench.GenerateNamed(name) }})
	}
	for _, cfg := range customConfigs {
		gens = append(gens, gen{cfg.Name, func() (*logic.Circuit, error) {
			if cfg.FFs > 0 {
				return bench.GenerateSeq(cfg)
			}
			return bench.Generate(cfg.Config)
		}})
	}
	for _, g := range gens {
		c, err := g.make()
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		var bt, vt bytes.Buffer
		if err := bench.Write(&bt, c); err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if err := verilog.Write(&vt, c); err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		fromBench, err := bench.Parse(c.Name, &bt)
		if err != nil {
			t.Fatalf("%s: bench: %v", g.name, err)
		}
		fromVerilog, err := verilog.Parse(&vt)
		if err != nil {
			t.Fatalf("%s: verilog: %v", g.name, err)
		}
		for _, v := range []struct {
			how string
			c   *logic.Circuit
		}{{"gen", c}, {"bench", fromBench}, {"verilog", fromVerilog}} {
			key := g.name + "/" + v.how
			if got := structureHash(v.c); got != netlistGolden[key] {
				t.Errorf("%s: structure hash %s, want %s", key, got, netlistGolden[key])
			}
		}
	}
}
