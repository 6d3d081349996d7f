# fspnet — reproduction of Kanellakis & Smolka, PODC 1985.

GO ?= go

.PHONY: all build test test-race test-fault test-crash test-engines serve-test serve-smoke cluster-test bench bench-smoke perf perf-smoke experiments experiments-quick experiments-json vet lint lint-specs fuzz-short cover examples clean

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint fails if gofmt would change any tracked .go file (untracked build
# directories such as .bench_build/ stay out), then runs the fsplint
# analyzer suite (detrand, frozenbits, frozenfsp, guardpoll, mapiter)
# over every package, then the speclint analyzers over every .fsp corpus
# file. See docs/ANALYSIS.md. It also runs as a go vet tool:
#   go build -o bin/fsplint ./cmd/fsplint && go vet -vettool=bin/fsplint ./...
# The second invocation pins the game solvers explicitly: a map-order
# dependence there changes verdict determinism, not just output order.
lint: lint-specs
	@unformatted="$$(gofmt -l $$(git ls-files '*.go'))"; \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi
	$(GO) run ./cmd/fsplint ./...
	$(GO) run ./cmd/fsplint ./internal/game/...

# lint-specs runs speclint over the .fsp corpora: any non-waived
# diagnostic fails the build (fsplint exits 2).
lint-specs:
	$(GO) run ./cmd/fsplint -specs ./testdata/... ./examples/...

test:
	$(GO) test -timeout 10m ./...

test-race:
	$(GO) test -race -timeout 15m ./...

# test-fault runs the fault-injection sweeps (internal/guard/faultinject):
# cancellation, deadline expiry, and synthetic panics injected at
# every BFS level and pass boundary, under the race detector. See
# docs/ROBUSTNESS.md.
test-fault:
	$(GO) test -race -timeout 5m -run FaultInject ./...

# test-crash runs the crash-recovery matrix: a real fspd child is
# SIGKILLed (FSPD_STORE_KILL) at every verdict-store record boundary,
# restarted against the same -cache-dir, and must serve exactly the
# committed prefix as byte-identical cache hits. See docs/ROBUSTNESS.md.
test-crash:
	$(GO) test -race -timeout 10m -run CrashRecovery -v ./cmd/fspd

# serve-test runs the fspd analysis-service suites (HTTP handlers, verdict
# cache, shared JSON codec, daemon lifecycle) under the race detector.
# See docs/SERVICE.md.
serve-test:
	$(GO) test -race -timeout 5m ./internal/serve ./internal/verdictjson ./cmd/fspd

# serve-smoke is the black-box service check CI runs: build fspd, start
# it, drive it with curl against testdata/philosophers10.fsp, assert a
# cache hit on the second request via /statusz, SIGTERM, expect exit 0.
# Its cluster case then boots fsprouter over two fspd workers and
# asserts a batch answers byte-identically to the same single calls.
serve-smoke:
	bash scripts/serve_smoke.sh

# cluster-test runs the scale-out tier suites under the race detector:
# consistent-hash ring determinism and distribution, failover when a
# worker is killed mid-load (no verdict contradictions), probe-driven
# ejection and readmission, and batch-vs-single byte identity through
# the router. See docs/SERVICE.md.
cluster-test:
	$(GO) test -race -timeout 10m ./internal/cluster ./cmd/fsprouter

# test-engines runs the engine suites under the race detector: the
# explore and belief golden stats suites, the witness-probe tests, the
# probes-on against probes-off differential fuzz seed corpus, the fspd
# philosophers20 end-to-end check, and the symred discovery tests. See
# docs/PERF.md.
test-engines:
	$(GO) test -race -timeout 5m -run Golden ./internal/explore ./internal/game/belief
	$(GO) test -race -timeout 5m -run Probe ./internal/explore ./internal/game/belief
	$(GO) test -race -timeout 5m -run FuzzDifferentialProbe ./internal/bench
	$(GO) test -race -timeout 5m -run 'Philosophers20|SingleFlight' ./internal/serve
	$(GO) test -race -timeout 5m ./internal/symred

# fuzz-short gives each fuzz target a 10s budget, the same wiring CI uses
# (go test accepts one -fuzz pattern per run, hence one invocation per
# target). FuzzDifferentialSa cross-checks the compose-free belief engine
# against the legacy compose-then-recurse S_a solver;
# FuzzDifferentialProbe cross-checks the engines with their witness
# probes on against the probe-free oracle over all three predicates.
fuzz-short:
	$(GO) test -fuzz=FuzzParse -fuzztime=10s ./internal/fsplang
	$(GO) test -fuzz=FuzzFormatRoundTrip -fuzztime=10s ./internal/fsplang
	$(GO) test -fuzz=FuzzDifferentialSa -fuzztime=10s ./internal/game/belief
	$(GO) test -fuzz=FuzzSpeclint -fuzztime=10s ./internal/speclint
	$(GO) test -fuzz=FuzzDifferentialProbe -fuzztime=10s ./internal/bench

test-verbose:
	$(GO) test -count=1 -v ./... 2>&1 | tee test_output.txt

bench:
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

# bench-smoke compiles and runs every benchmark exactly once — catches
# bit-rotted benchmarks without paying for real measurement.
bench-smoke:
	$(GO) test -bench . -benchtime=1x ./...

# perf runs the end-to-end fspd benchmark declared in BENCHMARK.json:
# every workload, default seed and duration. Build and run artefacts
# stay under .bench_build/. See cmd/fspperf/README.md.
perf:
	bash cmd/fspperf/bench.sh

# perf-smoke is the short run CI executes for its verdict check: the two
# cold workloads, 3 seconds each. fspperf exits 1 on any wrong verdict
# or failed step.
perf-smoke:
	bash cmd/fspperf/bench.sh --workload reach-cold,all-cold --seed 1 --seconds 3 --trace 0

experiments:
	$(GO) run ./cmd/fspbench

experiments-quick:
	$(GO) run ./cmd/fspbench -quick

# experiments-json regenerates the quick tables plus the machine-readable
# row records committed as BENCH_baseline.json.
experiments-json:
	$(GO) run ./cmd/fspbench -quick -json BENCH_baseline.json

cover:
	$(GO) test -cover ./...

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/protocol
	$(GO) run ./examples/philosophers
	$(GO) run ./examples/satgadget
	$(GO) run ./examples/adversary
	$(GO) run ./examples/unarychain

clean:
	$(GO) clean ./...
