# Tier-1 checks (vet/build/test), the statleaklint invariant suite,
# and the race pass over every package (the montecarlo and job-server
# worker pools are the concurrent hot spots, but -race runs repo-wide
# so new goroutines are covered by default).

GO ?= go
FUZZTIME ?= 10s

.PHONY: ci lint vet gofmt statleaklint unreferenced build test race scenario chaos isle bench bench-json experiments-output fuzz daemon

ci: lint build test race scenario chaos isle fuzz

# lint = go vet, the gofmt check, the repository's own analyzer
# suite, and the unreferenced-function guard. statleaklint enforces the
# engine's determinism/move-discipline/concurrency invariants; the
# -suppressions pass fails on any //lint:ignore whose reason is
# missing. See DESIGN.md §"Static analysis" and internal/analysis/.
lint: vet gofmt statleaklint unreferenced

# vet covers the module and the separate perfbench module.
vet:
	$(GO) vet ./...
	cd perfbench && $(GO) vet .

# gofmt fails on any Go file gofmt would rewrite, outside the analyzer
# fixtures (testdata/, deliberately hand-laid-out) and the benchmark's
# build tree (.bench_build/).
gofmt:
	@out=$$(find . -name '*.go' -not -path '*/testdata/*' -not -path './.bench_build/*' -print0 | xargs -0 gofmt -l); \
	if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

statleaklint:
	$(GO) run ./cmd/statleaklint ./...
	$(GO) run ./cmd/statleaklint -suppressions ./... >/dev/null

# unreferenced fails on any function or method that no non-test file
# of the module or of perfbench references (allowlist and reasons in
# the test). -count=1: the test reads sources go test cannot track.
unreferenced:
	$(GO) test -count=1 -run TestNoUnreferencedFuncs ./internal/analysis/statleaklint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# scenario runs the corner-family suite under the race detector: the
# Family's cross-corner scoring and mirroring, the scenario matrix itself,
# the 1×1-matrix golden equivalence guard (family must retrace the
# single-engine trajectories bit-for-bit), the pinned "scenario" rows
# of the golden scoreboard (TestScenarioGolden: multi-corner, {vh,vn},
# and body-biased weighted runs of both optimizers), and the end-state
# check (a run's reported end state equals fresh analyses of its
# design, scenario matrices included).
scenario:
	$(GO) test -race -run 'TestFamily|TestScenario|TestCornerView|TestNominalMatrix|TestStatEndState' ./internal/engine ./internal/scenario ./internal/core ./internal/opt

# chaos runs the fault-injection suite — server.FailPoints panics,
# errors and hangs driving the worker pool's recovery and deadline
# policy — under the race detector. The
# same tests ride along in test/race; the dedicated target is the
# fast iteration loop for the job path (see DESIGN.md §8).
chaos:
	$(GO) test -race -run 'TestChaos' ./internal/server

# isle runs the importance-sampling suite under the race detector:
# per-sample weight determinism across worker counts, the zero-shift
# bitwise reduction to plain sampling, the plain-vs-IS agreement
# property on ISCAS fixtures, the adaptive-budget loop, the
# seed-stream aliasing regression, and the die pool's worker-count
# independence and cancellation (see DESIGN.md §12).
isle:
	$(GO) test -race -run 'TestIS|TestZeroShift|TestSeedStream|TestTimingIS|TestAdaptiveTimingIS|TestStreamSeed|TestSplitMix|TestPool' ./internal/montecarlo ./internal/yield ./internal/stats

# bench runs every benchmark in the repository: the root evaluation
# harness (bench_test.go / DESIGN.md §5) plus the package-level
# micro-benchmarks (engine family mirroring and corner scaling, …).
# BENCHTIME=1x bench for a one-iteration smoke pass.
BENCHTIME ?= 1s
bench:
	$(GO) test -run xxx -bench . -benchmem -benchtime $(BENCHTIME) ./...

# bench-json runs the same sweep and renders the `go test -bench`
# output as machine-readable JSON (cmd/benchjson), the artifact CI
# uploads for regression tracking. BENCH_OUT defaults to a gitignored
# scratch file; name a BENCH_*.json trajectory file explicitly
# (BENCH_OUT=BENCH_11.json bench-json) to record one.
BENCH_OUT ?= bench-out.json
bench-json:
	$(GO) test -run xxx -bench . -benchmem -benchtime $(BENCHTIME) ./... | $(GO) run ./cmd/benchjson -out $(BENCH_OUT)

# experiments-output regenerates the committed sample of the
# experiment driver's output (reduced configuration, deterministic).
experiments-output:
	$(GO) run ./cmd/experiments -benchmarks s432,s880 -samples 500 > experiments_output.txt

# fuzz smoke: a short randomized pass over both netlist parsers.
# FUZZTIME=5m fuzz for a longer hunt; corpus accumulates in GOCACHE.
fuzz:
	$(GO) test ./internal/bench -fuzz=FuzzParseBench -fuzztime=$(FUZZTIME) -fuzzminimizetime=5s
	$(GO) test ./internal/verilog -fuzz=FuzzParseVerilog -fuzztime=$(FUZZTIME) -fuzzminimizetime=5s

# daemon builds and starts statleakd on :8080 (see README quickstart).
daemon:
	$(GO) run ./cmd/statleakd -addr :8080
