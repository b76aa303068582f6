package main

import (
	"arm2gc/internal/bencher"
)

// program is one garbled-processor program a workload serves, under the
// name both parties register it by.
type program struct {
	name string
	make func() *bencher.Workload
}

var (
	sum32      = program{"sum32", func() *bencher.Workload { return bencher.SumWorkload(32) }}
	hamming512 = program{"hamming512", func() *bencher.Workload { return bencher.HammingWorkload(512) }}
	matmul5    = program{"matmul5", func() *bencher.Workload { return bencher.MatrixMultWorkload(5) }}
)

// Session options every workload shares. The cycle budget is a ceiling,
// not a cost: every program halts long before it (matmul5 at 5133).
const (
	cycleBatch = 8
	maxCycles  = 20_000
)

// form names the shape a workload's table stream takes on the wire side
// of the server; it selects which proto/core probe the ledger reads.
type form int

const (
	formLive     form = iota // both parties classify every cycle
	formReplay               // both parties replay a cached classification trace
	formRecorded             // the server serves a pre-garbled stream, the client replays
)

// workload is one traffic shape. Sessions alternate over programs (client
// i starts on programs[i%len]); programs[0] is the primary: its sessions
// define session_p50_ms and the layer probes run on it.
type workload struct {
	name       string
	why        string
	programs   []program
	clients    int  // closed-loop clients, one connection each
	fleet      bool // two pooled servers behind a gateway; otherwise one server, dialled directly
	traceReuse bool // WithTraceReuse on the registration and on the client
	readAhead  int  // client WithReadAhead depth
	warmup     int  // untimed sessions per program per client; they record the traces
}

// form is the shape the workload's own table streams take.
func (w *workload) form() form {
	switch {
	case w.fleet:
		return formRecorded
	case w.traceReuse:
		return formReplay
	}
	return formLive
}

var workloads = []workload{
	{
		name:     "handshake.sum32",
		why:      "31 tables: negotiation and the 128 base OTs dominate; OT amortisation shows here, core does almost nothing",
		programs: []program{sum32}, clients: 1, traceReuse: true, warmup: 20,
	},
	{
		name:     "classify.hamming512",
		why:      "first-contact path, no trace reuse, no pool: both parties run Classify and CopyDFFs every cycle",
		programs: []program{hamming512}, clients: 1, warmup: 1,
	},
	{
		name:     "replay.hamming512",
		why:      "same program with trace reuse: replay kernels, no classification; moves opposite to classify on core changes",
		programs: []program{hamming512}, clients: 1, traceReuse: true, readAhead: 4, warmup: 2,
	},
	{
		name:     "tables.matmul5",
		why:      "127k tables, 4 MB per session: half-gates hashing, table framing and socket I/O carry the largest share",
		programs: []program{matmul5}, clients: 1, traceReuse: true, readAhead: 4, warmup: 1,
	},
	{
		name:     "fleet.mixed",
		why:      "2 clients through the gateway to 2 pooled servers, alternating sum32 and hamming512: concurrency, relay, pool hits",
		programs: []program{hamming512, sum32}, clients: 2, fleet: true, traceReuse: true, readAhead: 4, warmup: 2,
	},
}

// metricDef describes one reported metric. bound is the relative
// worsening that counts as a regression (end-to-end metrics only).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists what a client of the system sees. BENCHMARK.json mirrors
// this table (TestManifestMatchesHarness pins the two together).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"session_p50_ms", "ms", "lower", 0.25},
	{"sessions_per_s", "1/s", "higher", 0.25},
	{"wire_bytes_per_session", "B", "lower", 0.001},
}

// perLayer lists the traced run's metrics that every workload reports,
// named <module>.<metric>. They carry no bound; "better" is the direction
// a saving in that layer moves.
var perLayer = []metricDef{
	{Name: "minicc.compile_ms", Unit: "ms", Better: "lower"},
	{Name: "cpu.build_ms", Unit: "ms", Better: "lower"},
	{Name: "cpu.gates", Unit: "count", Better: "lower"},
	{Name: "cpu.nonxor_gates", Unit: "count", Better: "lower"},
	{Name: "cpu.dffs", Unit: "count", Better: "lower"},
	{Name: "ot.transfer_ms", Unit: "ms", Better: "lower"},
	{Name: "ot.bytes", Unit: "B", Better: "lower"},
	{Name: "proto.negotiate_ms", Unit: "ms", Better: "lower"},
	{Name: "core.classify_ms", Unit: "ms", Better: "lower"},
	{Name: "core.garble_ms", Unit: "ms", Better: "lower"},
	{Name: "core.eval_ms", Unit: "ms", Better: "lower"},
	{Name: "core.dff_commit_ms", Unit: "ms", Better: "lower"},
	{Name: "core.replay_garble_ms", Unit: "ms", Better: "lower"},
	{Name: "core.replay_eval_ms", Unit: "ms", Better: "lower"},
	{Name: "core.replay_dff_commit_ms", Unit: "ms", Better: "lower"},
	{Name: "core.trace_mb", Unit: "MB", Better: "lower"},
	{Name: "core.cycles_per_session", Unit: "count", Better: "lower"},
	{Name: "core.tables_per_session", Unit: "count", Better: "lower"},
	{Name: "core.tables_per_cycle", Unit: "count", Better: "lower"},
	{Name: "core.filtered_per_session", Unit: "count", Better: "higher"},
	{Name: "core.free_xor_per_session", Unit: "count", Better: "lower"},
	{Name: "core.public_gates_per_session", Unit: "count", Better: "lower"},
	{Name: "core.passthrough_per_session", Unit: "count", Better: "lower"},
	{Name: "core.dead_skipped_per_session", Unit: "count", Better: "higher"},
	{Name: "gc.garble_ns_per_table", Unit: "ns", Better: "lower"},
	{Name: "gc.eval_ns_per_table", Unit: "ns", Better: "lower"},
	{Name: "gc.floor_ms", Unit: "ms", Better: "lower"},
	{Name: "proto.stream_garbler_ms", Unit: "ms", Better: "lower"},
	{Name: "proto.stream_evaluator_ms", Unit: "ms", Better: "lower"},
	{Name: "proto.table_frames", Unit: "count", Better: "lower"},
	{Name: "proto.record_ms", Unit: "ms", Better: "lower"},
	{Name: "proto.self_ms", Unit: "ms", Better: "lower"},
	{Name: "proto.live_evaluator_ms", Unit: "ms", Better: "lower"},
	{Name: "proto.replay_evaluator_ms", Unit: "ms", Better: "lower"},
	{Name: "proto.recorded_evaluator_ms", Unit: "ms", Better: "lower"},
	{Name: "tracecache.replay_ratio", Unit: "ratio", Better: "higher"},
	{Name: "server.sessions_failed", Unit: "count", Better: "lower"},
	{Name: "server.sessions_rejected", Unit: "count", Better: "lower"},
	{Name: "server.bytes_written", Unit: "B", Better: "lower"},
	{Name: "server.engine_builds", Unit: "count", Better: "lower"},
	{Name: "client.evaluate_ms", Unit: "ms", Better: "lower"},
	{Name: "client.session_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "process.alloc_mb_per_session", Unit: "MB", Better: "lower"},
	{Name: "process.heap_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "process.gc_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "ledger.session_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "ledger.negotiate_ms", Unit: "ms", Better: "lower"},
	{Name: "ledger.ot_ms", Unit: "ms", Better: "lower"},
	{Name: "ledger.core_ms", Unit: "ms", Better: "lower"},
	{Name: "ledger.proto_self_ms", Unit: "ms", Better: "lower"},
	{Name: "unattributed_ms", Unit: "ms", Better: "lower"},
}

// tracedLayers is everything a traced run can report, in printing order.
func tracedLayers() []metricDef {
	return append(perLayer[:len(perLayer):len(perLayer)], fleetLayer...)
}

// fleetLayer lists the layers only a fleet workload has — the pool, the
// gateway and the second program. Its traced run reports them after the
// perLayer metrics; they are not in BENCHMARK.json, whose per_layer list
// holds what every workload measures.
var fleetLayer = []metricDef{
	{Name: "pool.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "pool.refill_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "pool.ready_min", Unit: "count", Better: "higher"},
	{Name: "gateway.relay_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "gateway.proposals", Unit: "count", Better: "lower"},
	{Name: "gateway.shed", Unit: "count", Better: "lower"},
	{Name: "gateway.backend_share_max", Unit: "ratio", Better: "lower"},
	{Name: "client.sum32_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "ledger.gateway_ms", Unit: "ms", Better: "lower"},
}
