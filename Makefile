# Tier-1 checks (vet/build/test), the statleaklint invariant suite,
# and the race pass over every package (the montecarlo and job-server
# worker pools are the concurrent hot spots, but -race runs repo-wide
# so new goroutines are covered by default).

GO ?= go
FUZZTIME ?= 10s

.PHONY: ci lint vet gofmt statleaklint lint-sarif build test race scenario chaos cluster isle bench bench-json experiments-output fuzz daemon

ci: lint build test race scenario chaos cluster isle fuzz

# lint = go vet, the gofmt check, and the repository's own analyzer
# suite. statleaklint enforces the engine's determinism/move-discipline/
# concurrency invariants; the -suppressions pass fails on any
# //lint:ignore whose reason is missing. See DESIGN.md §"Static
# analysis" and internal/analysis/.
lint: vet gofmt statleaklint

vet:
	$(GO) vet ./...

# gofmt fails on any Go file gofmt would rewrite, outside the analyzer
# fixtures (testdata/, deliberately hand-laid-out) and the benchmark's
# build tree (.bench_build/).
gofmt:
	@out=$$(find . -name '*.go' -not -path '*/testdata/*' -not -path './.bench_build/*' -print0 | xargs -0 gofmt -l); \
	if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

statleaklint:
	$(GO) run ./cmd/statleaklint ./...
	$(GO) run ./cmd/statleaklint -suppressions ./... >/dev/null

# lint-sarif emits the machine-readable report CI uploads (suppressed
# findings included, marked inSource).
lint-sarif:
	$(GO) run ./cmd/statleaklint -sarif -out statleaklint.sarif ./... || true

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# scenario runs the corner-family suite under the race detector: the
# Family's cross-corner scoring and mirroring, the scenario matrix itself,
# and the 1×1-matrix golden equivalence guard (family must retrace the
# single-engine trajectories bit-for-bit).
scenario:
	$(GO) test -race -run 'TestFamily|TestScenario|TestCornerView|TestNominalMatrix' ./internal/engine ./internal/scenario ./internal/core ./internal/opt

# chaos runs the fault-injection suite — server.FailPoints panics,
# hangs, and transient errors driving the worker pool's recovery,
# deadline, and retry/backoff policy — under the race detector. The
# same tests ride along in test/race; the dedicated target is the
# fast iteration loop for the job path (see DESIGN.md §8).
chaos:
	$(GO) test -race -run 'TestChaos' ./internal/server

# cluster runs the sharded-coordinator suite under the race detector:
# the consistent-hash ring contracts (balance, ~1/N movement on a
# join), the registry's death/revival edges, and the 3-replica
# integration tests — routing, idempotent resubmission, proxied
# cancel, and the kill-a-replica failover path asserting exactly-once
# completion (see DESIGN.md §11).
cluster:
	$(GO) test -race -run 'TestCluster|TestRing|TestRegistry|TestSteal|TestStatus|TestRequest|TestCanonical|TestOutcome' ./internal/cluster

# isle runs the importance-sampling suite under the race detector:
# per-sample weight determinism across worker counts, the zero-shift
# bitwise reduction to plain sampling, the plain-vs-IS agreement
# property on ISCAS fixtures, the adaptive-budget loop, and the
# seed-stream aliasing regression (see DESIGN.md §13).
isle:
	$(GO) test -race -run 'TestIS|TestZeroShift|TestSeedStream|TestTimingIS|TestAdaptiveTimingIS|TestStreamSeed|TestSplitMix' ./internal/montecarlo ./internal/yield ./internal/stats

# bench runs every benchmark in the repository: the root evaluation
# harness (bench_test.go / DESIGN.md §5) plus the package-level
# micro-benchmarks (engine family mirroring and corner scaling, …).
# BENCHTIME=1x bench for a one-iteration smoke pass.
BENCHTIME ?= 1s
bench:
	$(GO) test -run xxx -bench . -benchmem -benchtime $(BENCHTIME) ./...

# bench-json runs the same sweep and renders the `go test -bench`
# output as machine-readable JSON (cmd/benchjson), the artifact CI
# uploads for regression tracking. BENCH_OUT names the trajectory file
# for the current PR (BENCH_OUT=foo.json bench-json to redirect).
BENCH_OUT ?= BENCH_10.json
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
