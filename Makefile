GO ?= go
FUZZTIME ?= 10s

.PHONY: all build vet analyze test race fuzz-smoke cover ci dev-certs serve-tls test-hardening test-trace test-pool test-gateway test-membackend test-benchmark bench-session loc paper-tables

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
# attacker-shaped byte stream as the peer of each of the six OT roles
# (internal/ot FuzzOTPeer: error, never panic, never read or allocate past
# the frames), arbitrary bytes as an unauthorized proposal (internal/proto
# FuzzProposal: never panic, bounded allocation, accepted proposals
# re-encode byte-identically) and as the server's grant/reject reply
# (FuzzNegotiateReply: never panic, bounded allocation), then arbitrary
# client and backend streams through one gateway connection
# (internal/gateway FuzzGatewayRelay: always returns, allocation bounded
# whatever a header announces).
fuzz-smoke:
	$(GO) test ./internal/cpu -run '^$$' -fuzz '^FuzzInstructionStream$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ot -run '^$$' -fuzz '^FuzzOTPeer$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/proto -run '^$$' -fuzz '^FuzzProposal$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/proto -run '^$$' -fuzz '^FuzzNegotiateReply$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/gateway -run '^$$' -fuzz '^FuzzGatewayRelay$$' -fuzztime $(FUZZTIME)

# The paper's Tables 2, 3 and 4 as arm2gc-bench regenerates them (about
# 1 s each), into the committed PAPER_TABLES.md. CI regenerates the file
# and fails on any difference, so a change that moves a garbled-table
# count shows the rows it moves in review.
paper-tables:
	@{ echo '# Paper tables'; echo; \
	  echo 'Generated by `make paper-tables` from `go run ./cmd/arm2gc-bench -table N`; do not edit by hand.'; \
	  for n in 2 3 4; do echo; echo "## Table $$n"; echo; echo '```text'; \
	    $(GO) run ./cmd/arm2gc-bench -table $$n || exit 1; echo '```'; done; } > PAPER_TABLES.md.tmp
	@mv PAPER_TABLES.md.tmp PAPER_TABLES.md

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
		-run 'TestServer|TestClient|TestProposal|TestNegotiate|TestLoadRegistry' \
		. ./internal/proto ./internal/cli

# Classification-trace correctness: compile/replay across the core engine,
# the trace cache (one compile per key with the rest waiting, a waiter's
# cancellation, a cancelled compile handing over to a waiter, one byte
# budget over cached traces and compiles in flight, a compile refused room
# waiting for another to end and compiling again, tombstones returning
# ErrTraceBudget), the wire protocol (byte-identical frame pinning, exact
# table-frame reads, 1 GiB announcements) and the Engine API (the
# WithTraceReuse no-op, the trace-cache metrics, eight concurrent first
# sessions through Server and Client compiling once, many concurrent
# compiles under one budget, a Server refusing a program no trace fits
# before the grant; every such test has Trace in its name), plus the sparse flip-flop commit the
# compiled cycles carry (dense-commit oracle, its edge cases, registers
# swapping through aliased hold-MUXes, CycleStats invariance) — shuffled
# and under the race detector, as in CI.
test-trace:
	$(GO) test -race -shuffle=on -count=1 \
		-run 'Trace|HostileLength|TestPipelinedStatsSink|DenseCommit|CopyDFFs|ShiftRegister|HeldRegister|SwapRegister|CycleStatsInvariance' \
		. ./internal/core ./internal/cpu ./internal/proto

# Garble-ahead correctness at the pool's fixed depth (pool.Depth) and
# budget (pool.MemBytes): recorded streams byte-identical to live
# garbling, single-use enforcement, byte-budget eviction (the tests shrink
# the budget inside the package) and the server's pool-hit/miss paths —
# shuffled and under the race detector, as in CI. The pool has no
# settings left; it stays while the benchmark's fleet.mixed runs it.
test-pool:
	$(GO) test -race -shuffle=on -count=1 \
		-run 'Record|Pool|GarbleAhead' \
		. ./internal/proto ./internal/pool

# Fleet-gateway correctness: hash-ring affinity and bounded-load spill,
# per-peer shedding, the chaos sequence (backend kill → clean client
# error → eject → survivor serves → re-admit), client faults that keep
# the backend, one goroutine per idle connection, live registry/fleet ops,
# client retry/backoff, two-hop TLS and the header-only frame relay —
# shuffled and under the race detector, as in CI's fleet job.
test-gateway:
	$(GO) test -race -shuffle=on -count=1 \
		-run 'TestGateway|TestRing|TestPeerLimiter|TestServerRetire|TestPoolRetire|TestClientRetry|TestClientWithRetry|TestGatewayOpts|TestRelay' \
		. ./internal/gateway ./internal/pool ./internal/cli ./internal/wire

# Oblivious-memory backend correctness: the backend-equivalence grid
# (scan vs sqrt-ORAM machines under the same sessions, identical decoded
# outputs across cycle-batch settings), the auto rule that picks a
# session's backend from its layout, and the obliv/cpu unit suites —
# shuffled and under the race detector, as in CI's memory-backends job.
test-membackend:
	$(GO) test -race -shuffle=on -count=1 \
		-run 'MemoryBackend|Sqrt|CacheBackend|HealthyBackends' \
		. ./internal/obliv ./internal/cpu

# The repo benchmark (BENCHMARK.json) lives in its own module under
# benchmark/, so `go build ./...` and `go test ./...` at the root never
# compile it: build and test it here so a core/proto refactor cannot
# silently break it.
test-benchmark:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# One replayed session with the trace and the OTs warm, on sum32 and
# Hamming(512): time and heap per session with both parties over net.Pipe,
# where a round trip is a goroutine switch (internal/proto
# BenchmarkReplayedSession), then as a Client sees it against a Server
# over loopback TCP, where a round trip is a socket wake-up, with the
# client's read_wait and negotiate phases (root BenchmarkClientEvaluate).
# BENCHTIME=1x only checks that both still build and run, as CI does.
BENCHTIME ?= 2s
bench-session:
	$(GO) test -run '^$$' -bench '^BenchmarkReplayedSession$$' -benchmem -benchtime $(BENCHTIME) ./internal/proto
	$(GO) test -run '^$$' -bench '^BenchmarkClientEvaluate$$' -benchmem -benchtime $(BENCHTIME) .

# The line metric the ROADMAP tracks: non-test Go lines outside
# benchmark/ added, deleted and net since 21d10ad (the commit the
# benchmark was defined at), over committed files.
loc:
	@git diff --numstat 21d10ad HEAD -- '*.go' ':!benchmark' ':!*_test.go' | \
		awk '{a += $$1; d += $$2} END {print a + 0, d + 0, a - d}'

cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

ci: build vet analyze race fuzz-smoke test-benchmark
