GO ?= go
FUZZTIME ?= 10s

# The benchmark set `make bench-json` tracks: the warm-session cache path,
# the pipelined garbler, the per-cycle primitives and trace replay
# (BenchmarkTraceReplay rides next to BenchmarkSchedulerCycle — the
# classify pass replay removes), plus the offline/online split
# (BenchmarkPooledSession rides next to BenchmarkColdSession — the
# garbling work the pool moves offline).
BENCH_SET ?= BenchmarkEngineSessionReuse|BenchmarkGarblerPipeline|BenchmarkSchedulerCycle|BenchmarkGarbledProcessorCycle|BenchmarkTraceReplay|BenchmarkColdSession|BenchmarkPooledSession
BENCHTIME ?= 50x

# The oblivious-memory crossover pair: garbled tables per memory access
# under the linear scan vs the square-root ORAM on the 2KB relaxation
# workload (above the break-even, where the ORAM must win). The counts
# are exact schedule properties, so one iteration suffices and the
# tables/access metrics gate machine-independently in bench-compare.
BENCH_ORAM ?= BenchmarkMemAccessScan|BenchmarkMemAccessSqrtORAM
BENCH_ORAM_TIME ?= 1x
BENCH_THRESHOLD ?= 1.25
BENCH_FILE ?= BENCH_$(shell date +%Y-%m-%d).json

# Benchmarks run with the machine's full parallelism: an inherited
# GOMAXPROCS of 1 would serialize the pipelined garbler's producer with
# its writer and the two parties of the session benchmarks. The value
# lands in the report's hardware fingerprint (gomaxprocs), which gates
# ns/op comparisons to like hardware.
NPROC ?= $(shell getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)
BENCH_ENV = GOMAXPROCS=$(NPROC)

.PHONY: all build vet analyze test race fuzz-smoke bench-engine bench-pipeline bench-pool bench-oram bench-json bench-baseline bench-compare cover ci dev-certs serve-tls test-hardening test-trace test-pool test-gateway test-membackend test-benchmark

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# The repository's own static-analysis suite (cmd/arm2gc-vet): wire
# determinism, crypto hygiene, context threading, lock discipline, the
# typed-frame wire contract and error-discard checking over every module
# package — then the netlist structural linter over the example registry
# programs on both oblivious-memory backends. staticcheck rides along
# when installed (CI installs it pinned; the offline dev loop skips it).
STATICCHECK_VERSION ?= 2025.1.1
analyze:
	$(GO) run ./cmd/arm2gc-vet
	$(GO) run ./cmd/arm2gc-vet -netlist examples/registry/addmax.c -alice-words 1 -bob-words 1 -out-words 2 -scratch 16
	$(GO) run ./cmd/arm2gc-vet -netlist examples/registry/relax.c -mem-backend sqrt-oram
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "staticcheck not installed; skipping (CI pins $(STATICCHECK_VERSION))"; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race -shuffle=on ./...

# Short fuzzing smoke runs: random instruction streams on the processor
# circuit vs the emulator (internal/cpu FuzzInstructionStream), then an
# attacker-shaped byte stream as the peer of each of the four OT roles
# (internal/ot FuzzOTPeer: error, never panic, never read or allocate past
# the flight).
fuzz-smoke:
	$(GO) test ./internal/cpu -run '^$$' -fuzz FuzzInstructionStream -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ot -run '^$$' -fuzz FuzzOTPeer -fuzztime $(FUZZTIME)

# Cache-hit guard: warm Engine sessions must perform zero netlist
# synthesis (the benchmark fails if they rebuild).
bench-engine:
	$(BENCH_ENV) $(GO) test -run '^$$' -bench BenchmarkEngineSessionReuse -benchtime 50x .

# Pipelined vs serial garbler wall clock over net.Pipe with simulated
# link latency: the pipelined path overlaps garbling with frame I/O.
bench-pipeline:
	$(BENCH_ENV) $(GO) test -run '^$$' -bench BenchmarkGarblerPipeline -benchtime 5x .

# Offline/online split: a session served from a pre-garbled stream (the
# state a garble-ahead pool hit leaves the server in) vs a cold one that
# garbles inline — the gap is the online latency the pool removes.
bench-pool:
	$(BENCH_ENV) $(GO) test -run '^$$' -bench 'BenchmarkColdSession|BenchmarkPooledSession' -benchtime 5x .

# Oblivious-memory crossover: scan vs square-root ORAM tables per
# memory access, standalone (the same pair rides in bench-json's report
# and gates in bench-compare).
bench-oram:
	$(BENCH_ENV) $(GO) test -run '^$$' -bench '$(BENCH_ORAM)' -benchtime $(BENCH_ORAM_TIME) .

# Machine-readable benchmark report at the repo root (BENCH_<date>.json):
# ns/op, allocs and the engine's own counters for the core benchmark set,
# plus the bench-oram crossover pair (at its own single-iteration count —
# its gated metric is exact, not timed).
bench-json:
	{ $(BENCH_ENV) $(GO) test -run '^$$' -bench '$(BENCH_SET)' -benchmem -benchtime $(BENCHTIME) . ; \
	  $(BENCH_ENV) $(GO) test -run '^$$' -bench '$(BENCH_ORAM)' -benchtime $(BENCH_ORAM_TIME) . ; } \
		| $(GO) run ./cmd/bench-json -out $(BENCH_FILE)

# Regenerate the committed regression baseline (run on the machine class
# that gates, i.e. the CI runner, and commit the result).
bench-baseline:
	$(MAKE) bench-json BENCH_FILE=BENCH_baseline.json

# Gate the current tree against the committed baseline. ns/op is compared
# only on matching hardware; allocs/op and the schedule counters
# (tables/cycle, dffs/cycle, copies/cycle) always.
bench-compare: bench-json
	$(GO) run ./cmd/bench-json -compare BENCH_baseline.json,$(BENCH_FILE) -threshold $(BENCH_THRESHOLD)

# Throwaway development TLS material (CA + server/client leaves, valid
# 24h, loopback only) under ./dev-certs — never commit it; .gitignore'd.
dev-certs:
	$(GO) run ./cmd/dev-certs -dir dev-certs

# Serve the example two-program registry over TLS with fresh dev certs
# and a Prometheus endpoint on :9090. Pair with e.g.:
#   go run ./cmd/arm2gc -role client -connect localhost:9000 \
#     -program addmax -c examples/registry/addmax.c -input 42 \
#     -alice-words 1 -bob-words 1 -out-words 2 -scratch 16 \
#     -auth-token demo-token -tls-ca dev-certs/ca.pem
serve-tls: dev-certs
	$(GO) run ./cmd/arm2gc -role serve -listen :9000 \
		-registry examples/registry/registry.json \
		-tls-cert dev-certs/server.pem -tls-key dev-certs/server-key.pem \
		-metrics :9090

# The service-hardening test set: TLS/mTLS round trips, authorization,
# registry manifests, metrics exactness, shutdown hygiene and client
# cancellation — shuffled and under the race detector, as in CI.
test-hardening:
	$(GO) test -race -shuffle=on -count=1 \
		-run 'TestServer|TestClient|TestProposal|TestNegotiate|TestLoadRegistry|TestCompare' \
		. ./internal/proto ./internal/cli ./cmd/bench-json

# Classification-trace correctness: record/replay across the core engine,
# the trace cache, the wire protocol (byte-identical frame pinning) and
# the Engine API, plus the sparse flip-flop commit the compiled cycles
# carry (dense-commit oracle, its edge cases, CycleStats invariance) —
# shuffled and under the race detector, as in CI.
test-trace:
	$(GO) test -race -shuffle=on -count=1 \
		-run 'Trace|TestPipelinedStatsSink|DenseCommit|CopyDFFs|ShiftRegister|HeldRegister|CycleStatsInvariance' \
		. ./internal/core ./internal/cpu ./internal/proto

# Garble-ahead correctness: recorded streams byte-identical to live
# garbling, single-use enforcement, eviction/spill lifecycle, evaluator
# read-ahead and the server's pool-hit/miss paths — shuffled and under
# the race detector, as in CI.
test-pool:
	$(GO) test -race -shuffle=on -count=1 \
		-run 'Record|ReadAhead|Pool|GarbleAhead' \
		. ./internal/proto ./internal/pool

# Fleet-gateway correctness: hash-ring sharding and bounded-load spill,
# per-peer shedding, the chaos sequence (backend kill → clean client
# error → eject → survivor serves → re-admit), live registry/fleet ops,
# client retry/backoff and two-hop TLS — shuffled and under the race
# detector, as in CI's fleet job.
test-gateway:
	$(GO) test -race -shuffle=on -count=1 \
		-run 'TestGateway|TestRing|TestPeerLimiter|TestServerRetire|TestPoolRetire|TestClientRetry|TestClientWithRetry|TestGatewayOpts' \
		. ./internal/gateway ./internal/pool ./internal/cli

# Oblivious-memory backend correctness: the backend-equivalence grid
# (scan vs sqrt-ORAM, identical decoded outputs across pipeline/batch
# settings), auto selection, negotiation mismatch rejection, the
# wire extension and the obliv/cpu unit suites — shuffled and under the
# race detector, as in CI's memory-backends job.
test-membackend:
	$(GO) test -race -shuffle=on -count=1 \
		-run 'MemoryBackend|MemBackend|Sqrt|Permute|Backend' \
		. ./internal/obliv ./internal/cpu ./internal/build ./internal/proto

# The repo benchmark (BENCHMARK.json) lives in its own module under
# benchmark/, so `go build ./...` and `go test ./...` at the root never
# compile it: build and test it here so a core/proto refactor cannot
# silently break it.
test-benchmark:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

ci: build vet analyze race fuzz-smoke bench-engine bench-pipeline bench-compare
