package arm2gc

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"arm2gc/internal/proto"
)

// serverMetrics is the Server's live counter set. Everything is atomic so
// the hot path never takes a lock; the per-program map is guarded by its
// own mutex and only grows (one entry per registered program).
type serverMetrics struct {
	served              atomic.Int64
	rejected            atomic.Int64
	failed              atomic.Int64
	panics              atomic.Int64
	active              atomic.Int64
	negotiationFailures atomic.Int64
	connsAccepted       atomic.Int64
	connsActive         atomic.Int64
	bytesRead           atomic.Int64
	bytesWritten        atomic.Int64
	tableFrames         atomic.Int64
	cycles              atomic.Int64
	garbledTables       atomic.Int64
	poolHits            atomic.Int64
	poolMisses          atomic.Int64
	otBaseRuns          atomic.Int64
	otReuses            atomic.Int64
	otDeclined          atomic.Int64

	// phases holds the served sessions' phase histograms, by path.
	phases [numPaths][proto.NumPhases]phaseHistogram

	mu       sync.Mutex
	programs map[string]*programCounters
}

// sessionPath is how a served session's table stream was produced: the
// path label of arm2gc_session_phase_seconds.
type sessionPath uint8

const (
	pathReplay   sessionPath = iota // replayed a compiled trace
	pathClassify                    // classified live: no trace of the program fits the cache
	pathPool                        // served a pre-garbled stream
	numPaths
)

var pathNames = [numPaths]string{"replay", "classify", "pool"}

// phaseBuckets are the upper bounds, in seconds, of the session-phase
// histograms: a decade each from 10 µs to 10 s.
var phaseBuckets = [...]float64{1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1, 10}

// phaseHistogram is one (phase, path) histogram: a count per bucket (the
// last one past every bound) and the sum of the observations.
type phaseHistogram struct {
	counts [len(phaseBuckets) + 1]atomic.Int64
	sumNs  atomic.Int64
}

// observePhases adds a served session's phases to its path's histograms.
func (m *serverMetrics) observePhases(info *RunInfo) {
	for p, d := range info.Phases {
		h := &m.phases[info.path][p]
		h.counts[sort.SearchFloat64s(phaseBuckets[:], d.Seconds())].Add(1)
		h.sumNs.Add(int64(d))
	}
}

// PhaseHistogram is one (phase, path) histogram of a Server's sessions:
// Buckets[i] counts the sessions whose phase took at most 10^(i−5)
// seconds — 10 µs up to 10 s — cumulative, as Prometheus reads it.
type PhaseHistogram struct {
	Phase      string  `json:"phase"`
	Path       string  `json:"path"`
	Buckets    []int64 `json:"buckets"`
	Count      int64   `json:"count"`
	SumSeconds float64 `json:"sum_seconds"`
}

// phaseSnapshot snapshots the histograms of every path that has served a
// session.
func (m *serverMetrics) phaseSnapshot() []PhaseHistogram {
	var out []PhaseHistogram
	for path := range m.phases {
		for p := range m.phases[path] {
			h := &m.phases[path][p]
			ph := PhaseHistogram{Phase: proto.Phase(p).String(), Path: pathNames[path],
				Buckets: make([]int64, len(phaseBuckets)), SumSeconds: float64(h.sumNs.Load()) / 1e9}
			for i := range h.counts {
				ph.Count += h.counts[i].Load()
				if i < len(ph.Buckets) {
					ph.Buckets[i] = ph.Count
				}
			}
			if ph.Count == 0 {
				break // a path's phases all count its sessions
			}
			out = append(out, ph)
		}
	}
	return out
}

// programCounters is one registered program's slice of the counters.
type programCounters struct {
	served   atomic.Int64
	rejected atomic.Int64
}

// program returns (creating on first use) a program's counter slot.
func (m *serverMetrics) program(name string) *programCounters {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.programs[name]
	if c == nil {
		c = &programCounters{}
		m.programs[name] = c
	}
	return c
}

// countedConn counts wire bytes through an accepted connection. It wraps
// the raw conn beneath any TLS layer, so the counters see ciphertext —
// what actually crossed the network. Embedding net.Conn preserves the
// deadline methods the protocol's context watcher needs.
type countedConn struct {
	net.Conn
	m *serverMetrics
}

func (c *countedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.m.bytesRead.Add(int64(n))
	return n, err
}

func (c *countedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.m.bytesWritten.Add(int64(n))
	return n, err
}

// ServerMetrics is a point-in-time snapshot of a Server's counters (see
// Server.Metrics). All fields are cumulative since the Server was created
// except the *Active gauges.
type ServerMetrics struct {
	// SessionsServed counts sessions that ran the protocol to completion.
	SessionsServed int64 `json:"sessions_served"`
	// SessionsRejected counts proposals declined by policy — unknown
	// program, authorization failure, or an option outside the
	// registration's bounds. The connection survives each one.
	SessionsRejected int64 `json:"sessions_rejected"`
	// SessionsFailed counts sessions that died mid-protocol (peer gone,
	// stream desynchronized); each costs its connection.
	SessionsFailed int64 `json:"sessions_failed"`
	// SessionPanics counts panics recovered in a connection handler or a
	// garble-ahead refill — a caller-supplied callback that panicked, say.
	// Each costs its connection (or fails its refill) and is logged with
	// its stack; none reaches SessionsFailed.
	SessionPanics int64 `json:"session_panics"`
	// SessionsActive is the number of sessions garbling right now.
	SessionsActive int64 `json:"sessions_active"`
	// NegotiationFailures counts proposals that could not be negotiated at
	// the frame layer — currently version mismatches (a peer announcing
	// feature flags this build does not implement).
	NegotiationFailures int64 `json:"negotiation_failures"`
	// ConnectionsAccepted / ConnectionsActive count evaluator connections.
	ConnectionsAccepted int64 `json:"connections_accepted"`
	ConnectionsActive   int64 `json:"connections_active"`
	// BytesRead / BytesWritten are wire bytes through accepted
	// connections (ciphertext when serving TLS).
	BytesRead    int64 `json:"bytes_read"`
	BytesWritten int64 `json:"bytes_written"`
	// TableFrames counts garbled-table frames sent across all sessions.
	TableFrames int64 `json:"table_frames"`
	// Cycles and GarbledTables total the executed processor cycles and
	// transferred garbled tables — the paper's cost metric, summed over
	// every served session.
	Cycles        int64 `json:"cycles"`
	GarbledTables int64 `json:"garbled_tables"`
	// OTBaseRuns counts runs of the 128 base OTs: OT set-ups, and
	// sessions whose proposal named no epoch the connection holds for the
	// program. OTExtensionsReused counts sessions that only extended a
	// held epoch. A Client runs the base OTs once per program and
	// connection, at Register. OTSetupsDeclined counts OT set-ups the
	// server refused (an unknown program, a policy, a set-up for a
	// program the connection already holds); the client's sessions then
	// run the base OTs or extend the epoch it holds. A refused set-up is
	// no rejected session.
	OTBaseRuns         int64 `json:"ot_base_runs"`
	OTExtensionsReused int64 `json:"ot_extensions_reused"`
	OTSetupsDeclined   int64 `json:"ot_setups_declined"`
	// EngineBuilds is how many netlist syntheses the serving Engine has
	// performed; a warm multi-program server holds this at one per layout.
	EngineBuilds int64 `json:"engine_builds"`
	// TraceRecordings, TraceReplays and TraceEvictions are the serving
	// Engine's trace-cache counters: trace compiles started (one per
	// program and cycle budget while it stays cached, however many
	// sessions wait for it), runs served a trace they did not compile, and
	// entries the byte budget pushed out; replays over compiles plus
	// replays is the hit rate. TraceUncacheable counts compiles that alone
	// outgrew the budget — their programs classify every session live —
	// and TraceCacheBytes gauges the cache's footprint, compiles in flight
	// included. The Engine also counts the runs of any Client sharing it.
	TraceRecordings  int64 `json:"trace_recordings"`
	TraceReplays     int64 `json:"trace_replays"`
	TraceEvictions   int64 `json:"trace_evictions"`
	TraceUncacheable int64 `json:"trace_uncacheable"`
	TraceCacheBytes  int64 `json:"trace_cache_bytes"`
	// Programs holds the per-registration counters, keyed by registered
	// name. Every registered program appears, even at zero.
	Programs map[string]ProgramMetrics `json:"programs"`
	// SessionPhases holds the served sessions' wall time by phase (see
	// RunInfo.Phases), one histogram per phase and path — replay,
	// classify or pool — for every path that has served a session.
	SessionPhases []PhaseHistogram `json:"session_phases"`
	// GarbleAhead reports the garble-ahead pool; nil unless the Server
	// was built WithGarbleAhead.
	GarbleAhead *GarbleAheadMetrics `json:"garble_ahead,omitempty"`
}

// GarbleAheadMetrics is the garble-ahead pool's slice of a Server
// metrics snapshot.
type GarbleAheadMetrics struct {
	// Hits counts sessions served from a pre-garbled stream; Misses
	// counts sessions of pooled programs that garbled live instead —
	// the pool was dry, or the client proposed non-default options.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Refills counts completed offline garbling passes; RefillNanos is
	// the producer time they took in total, so RefillNanos/Refills is
	// the mean refill latency.
	Refills        int64 `json:"refills"`
	RefillFailures int64 `json:"refill_failures"`
	RefillNanos    int64 `json:"refill_nanos"`
	// Evictions counts entries dropped for the byte budget.
	Evictions int64 `json:"evictions"`
	// MemBytes/Ready gauge the pool's current contents.
	MemBytes int64 `json:"mem_bytes"`
	Ready    int   `json:"ready"`
	// Programs holds per-program pool state, keyed by registered name.
	Programs map[string]GarbleAheadProgram `json:"programs"`
}

// GarbleAheadProgram is one pooled program's readiness and traffic. Its
// Hits/Misses count only default-option sessions (the streams the pool
// actually fills); the top-level counters include off-key sessions too.
type GarbleAheadProgram struct {
	Ready   int   `json:"ready"`
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Refills int64 `json:"refills"`
}

// ProgramMetrics is one registered program's session counters.
type ProgramMetrics struct {
	Served   int64 `json:"served"`
	Rejected int64 `json:"rejected"`
}

// Metrics snapshots the Server's counters. It is safe to call at any
// time, including while serving.
func (s *Server) Metrics() ServerMetrics {
	m := ServerMetrics{
		SessionsServed:      s.met.served.Load(),
		SessionsRejected:    s.met.rejected.Load(),
		SessionsFailed:      s.met.failed.Load(),
		SessionPanics:       s.met.panics.Load(),
		SessionsActive:      s.met.active.Load(),
		NegotiationFailures: s.met.negotiationFailures.Load(),
		ConnectionsAccepted: s.met.connsAccepted.Load(),
		ConnectionsActive:   s.met.connsActive.Load(),
		BytesRead:           s.met.bytesRead.Load(),
		BytesWritten:        s.met.bytesWritten.Load(),
		TableFrames:         s.met.tableFrames.Load(),
		Cycles:              s.met.cycles.Load(),
		GarbledTables:       s.met.garbledTables.Load(),
		OTBaseRuns:          s.met.otBaseRuns.Load(),
		OTExtensionsReused:  s.met.otReuses.Load(),
		OTSetupsDeclined:    s.met.otDeclined.Load(),
		EngineBuilds:        s.eng.Builds(),
		TraceRecordings:     s.eng.traces.Compiles(),
		TraceReplays:        s.eng.traces.Replays(),
		TraceEvictions:      s.eng.traces.Evictions(),
		TraceUncacheable:    s.eng.traces.Uncacheable(),
		TraceCacheBytes:     s.eng.traces.Bytes(),
		Programs:            make(map[string]ProgramMetrics),
		SessionPhases:       s.met.phaseSnapshot(),
	}
	s.met.mu.Lock()
	for name, c := range s.met.programs {
		m.Programs[name] = ProgramMetrics{Served: c.served.Load(), Rejected: c.rejected.Load()}
	}
	s.met.mu.Unlock()
	if s.pool != nil {
		ps := s.pool.Stats()
		ga := &GarbleAheadMetrics{
			Hits:           s.met.poolHits.Load(),
			Misses:         s.met.poolMisses.Load(),
			Refills:        ps.Refills,
			RefillFailures: ps.Failures,
			RefillNanos:    ps.RefillTime.Nanoseconds(),
			Evictions:      ps.Evictions,
			MemBytes:       ps.MemBytes,
			Ready:          ps.Ready,
			Programs:       make(map[string]GarbleAheadProgram, len(ps.Programs)),
		}
		for name, p := range ps.Programs {
			ga.Programs[name] = GarbleAheadProgram{Ready: p.Ready,
				Hits: p.Hits, Misses: p.Misses, Refills: p.Refills}
		}
		m.GarbleAhead = ga
	}
	return m
}

// MetricsHandler returns an http.Handler exposing the Server's counters
// in the Prometheus text format (and as JSON with ?format=json). Mount it
// wherever the operator scrapes:
//
//	mux := http.NewServeMux()
//	mux.Handle("/metrics", srv.MetricsHandler())
//	go http.ListenAndServe(":9090", mux)
//
// The handler is scrape-only: it never touches the negotiation port and
// holds no locks across the garbling hot path.
func (s *Server) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		m := s.Metrics()
		if r.URL.Query().Get("format") == "json" {
			// Marshal before writing: an encode failure becomes a clean
			// 500 instead of a truncated 200 the scraper would trust.
			b, err := json.MarshalIndent(m, "", "  ")
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write(append(b, '\n')) // scraper gone mid-reply: nothing to report to
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		writeProm(w, m)
	})
}

// writeProm renders a snapshot in the Prometheus exposition format.
func writeProm(w http.ResponseWriter, m ServerMetrics) {
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter("arm2gc_sessions_served_total", "Sessions that ran the protocol to completion.", m.SessionsServed)
	counter("arm2gc_sessions_rejected_total", "Proposals declined by policy; the connection survives.", m.SessionsRejected)
	counter("arm2gc_sessions_failed_total", "Sessions that died mid-protocol.", m.SessionsFailed)
	counter("arm2gc_session_panics_total", "Panics recovered in a connection handler or a pool refill.", m.SessionPanics)
	gauge("arm2gc_sessions_active", "Sessions garbling right now.", m.SessionsActive)
	counter("arm2gc_negotiation_failures_total", "Proposals unreadable at the frame layer (version mismatch).", m.NegotiationFailures)
	counter("arm2gc_connections_accepted_total", "Evaluator connections accepted.", m.ConnectionsAccepted)
	gauge("arm2gc_connections_active", "Evaluator connections currently open.", m.ConnectionsActive)
	counter("arm2gc_wire_read_bytes_total", "Wire bytes read from evaluator connections.", m.BytesRead)
	counter("arm2gc_wire_written_bytes_total", "Wire bytes written to evaluator connections.", m.BytesWritten)
	counter("arm2gc_table_frames_total", "Garbled-table frames sent.", m.TableFrames)
	counter("arm2gc_cycles_total", "Processor cycles executed across served sessions.", m.Cycles)
	counter("arm2gc_garbled_tables_total", "Garbled tables transferred across served sessions.", m.GarbledTables)
	counter("arm2gc_ot_base_runs_total", "OT set-ups and sessions that ran the base OTs.", m.OTBaseRuns)
	counter("arm2gc_ot_extensions_reused_total", "Sessions that only extended their connection's OT epoch.", m.OTExtensionsReused)
	counter("arm2gc_ot_setups_declined_total", "OT set-ups refused; they count as no rejected session.", m.OTSetupsDeclined)
	counter("arm2gc_engine_builds_total", "Netlist syntheses performed by the serving Engine.", m.EngineBuilds)
	counter("arm2gc_trace_recordings_total", "Classification-trace compiles the serving Engine started; concurrent sessions share one.", m.TraceRecordings)
	counter("arm2gc_trace_replays_total", "Runs served a classification trace they did not compile.", m.TraceReplays)
	counter("arm2gc_trace_evictions_total", "Trace-cache entries dropped for the byte budget.", m.TraceEvictions)
	counter("arm2gc_trace_uncacheable_total", "Trace compiles that outgrew the trace-cache budget.", m.TraceUncacheable)
	gauge("arm2gc_trace_cache_bytes", "Classification traces held in memory, cached or being compiled.", m.TraceCacheBytes)

	fmt.Fprintf(w, "# HELP arm2gc_session_phase_seconds Served sessions' wall time by phase and path (replay, classify or pool).\n")
	fmt.Fprintf(w, "# TYPE arm2gc_session_phase_seconds histogram\n")
	for _, h := range m.SessionPhases {
		labels := fmt.Sprintf("phase=%q,path=%q", h.Phase, h.Path)
		for i, n := range h.Buckets {
			le := strconv.FormatFloat(phaseBuckets[i], 'g', -1, 64)
			fmt.Fprintf(w, "arm2gc_session_phase_seconds_bucket{%s,le=%q} %d\n", labels, le, n)
		}
		fmt.Fprintf(w, "arm2gc_session_phase_seconds_bucket{%s,le=\"+Inf\"} %d\n", labels, h.Count)
		fmt.Fprintf(w, "arm2gc_session_phase_seconds_sum{%s} %g\n", labels, h.SumSeconds)
		fmt.Fprintf(w, "arm2gc_session_phase_seconds_count{%s} %d\n", labels, h.Count)
	}

	// %q escapes backslash, double quote and newline — the exact set the
	// Prometheus text format requires escaped in label values.
	names := make([]string, 0, len(m.Programs))
	for name := range m.Programs {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# HELP arm2gc_program_sessions_served_total Sessions served, by registered program.\n")
	fmt.Fprintf(w, "# TYPE arm2gc_program_sessions_served_total counter\n")
	for _, name := range names {
		fmt.Fprintf(w, "arm2gc_program_sessions_served_total{program=%q} %d\n", name, m.Programs[name].Served)
	}
	fmt.Fprintf(w, "# HELP arm2gc_program_sessions_rejected_total Proposals rejected, by registered program.\n")
	fmt.Fprintf(w, "# TYPE arm2gc_program_sessions_rejected_total counter\n")
	for _, name := range names {
		fmt.Fprintf(w, "arm2gc_program_sessions_rejected_total{program=%q} %d\n", name, m.Programs[name].Rejected)
	}

	if ga := m.GarbleAhead; ga != nil {
		counter("arm2gc_pool_hits_total", "Sessions served from a pre-garbled stream.", ga.Hits)
		counter("arm2gc_pool_misses_total", "Pooled-program sessions that garbled live.", ga.Misses)
		counter("arm2gc_pool_refills_total", "Completed offline garbling passes.", ga.Refills)
		counter("arm2gc_pool_refill_failures_total", "Failed offline garbling passes.", ga.RefillFailures)
		counter("arm2gc_pool_refill_nanoseconds_total", "Producer time across refills; divide by refills for mean latency.", ga.RefillNanos)
		counter("arm2gc_pool_evictions_total", "Pool entries dropped for the byte budget.", ga.Evictions)
		gauge("arm2gc_pool_mem_bytes", "Pre-garbled bytes resident in memory.", ga.MemBytes)
		gauge("arm2gc_pool_ready", "Ready pre-garbled streams across all programs.", int64(ga.Ready))
		pnames := make([]string, 0, len(ga.Programs))
		for name := range ga.Programs {
			pnames = append(pnames, name)
		}
		sort.Strings(pnames)
		fmt.Fprintf(w, "# HELP arm2gc_pool_program_ready Ready pre-garbled streams, by program.\n")
		fmt.Fprintf(w, "# TYPE arm2gc_pool_program_ready gauge\n")
		for _, name := range pnames {
			fmt.Fprintf(w, "arm2gc_pool_program_ready{program=%q} %d\n", name, ga.Programs[name].Ready)
		}
	}
}
