package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
)

// tracedResult is the outcome of one workload's traced run: every
// per-layer metric, the spans behind them, and the sessions it verified.
type tracedResult struct {
	metrics   map[string]float64
	samples   map[string]int
	spans     []span
	attempted int
	failed    int
	firstErr  error
}

// runTraced is the separate traced run of one workload: one round on a
// fresh stack with an untraced phase (the reference p50) and a traced phase
// of the same length through the benchmark's own span-recording client,
// then the layer probes on the workload's primary program, then the
// ledger. End-to-end metrics are never taken from here.
func runTraced(ctx context.Context, w *workload, seed uint64, exps map[string]expect, phase func() limit) (*tracedResult, error) {
	t := &tracedRun{w: w, exps: exps, phase: phase, rng: rand.New(rand.NewPCG(seed, 2)), tr: newTracer(),
		m: map[string]float64{}, res: &tracedResult{samples: map[string]int{}}}
	t.res.metrics = t.m
	t.root = t.tr.start("workload:"+w.name, 0, 0)
	primary, err := t.sessions(ctx)
	if err != nil {
		return nil, err
	}
	if t.res.failed > 0 {
		return t.res, nil // a broken stack has no layer numbers worth reporting
	}
	if err := t.probes(ctx, primary); err != nil {
		return nil, err
	}
	t.ledger()
	t.tr.end(t.root)
	t.res.spans = t.tr.snapshot()
	return t.res, nil
}

// tracedRun is what the parts of one traced run share.
type tracedRun struct {
	w     *workload
	exps  map[string]expect
	phase func() limit
	rng   *rand.Rand
	tr    *tracer
	root  int // the workload's root span
	m     map[string]float64
	res   *tracedResult
}

// sessions builds the stack, runs the untraced and the traced phase on it,
// and reads everything that needs the stack alive: the client-observed
// numbers, the serving side's counters and, on a fleet, the relay probe.
// It returns the primary program for the layer probes.
func (t *tracedRun) sessions(ctx context.Context) (primary compiled, err error) {
	w, tr, m, res := t.w, t.tr, t.m, t.res
	setup := tr.start("setup", t.root, 0)
	st, err := buildStack(ctx, w, t.rng, tr, setup)
	if err != nil {
		return primary, err
	}
	defer func() {
		if cerr := st.close(); err == nil && cerr != nil && res.failed == 0 {
			err = fmt.Errorf("teardown: %w", cerr)
		}
	}()
	sp := tr.start("warmup", setup, 0)
	if err := st.warmUp(ctx, t.rng.Uint64(), t.exps); err != nil {
		return primary, err
	}
	tr.end(sp)
	tr.end(setup)
	primary = st.progs[0]

	// Phase A, untraced: what a user of Client.Evaluate sees on this stack.
	a := st.runPhase(ctx, clientSeeds(t.rng.Uint64(), len(st.clients)), t.exps, t.phase(), nil, 0, nil)

	// Phase B, traced. The pool gauge is sampled between client 0's
	// sessions; allocation is accounted across the phase.
	readyMin := math.Inf(1)
	sampleReady := func() {
		for _, be := range st.backends {
			if ga := be.srv.Metrics().GarbleAhead; ga != nil {
				for _, p := range ga.Programs {
					if p.Hits+p.Misses > 0 {
						readyMin = math.Min(readyMin, float64(p.Ready))
					}
				}
			}
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	phaseSpan := tr.start("sessions", t.root, 0)
	b := st.runPhase(ctx, clientSeeds(t.rng.Uint64(), len(st.clients)), t.exps, t.phase(), tr, phaseSpan, sampleReady)
	tr.end(phaseSpan)
	runtime.ReadMemStats(&m1)

	res.attempted, res.failed = a.attempted+b.attempted, a.failed+b.failed
	if res.firstErr = a.firstErr; res.firstErr == nil {
		res.firstErr = b.firstErr
	}
	if res.failed > 0 {
		return primary, nil
	}

	m["process.alloc_mb_per_session"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6 / float64(b.attempted)
	m["process.heap_peak_mb"] = float64(m1.HeapSys) / 1e6
	m["process.gc_cpu_share"] = m1.GCCPUFraction

	// Client-observed numbers: untraced from phase A, traced from the spans.
	p50 := median(a.lat[primary.name])
	m["ledger.session_p50_ms"] = p50
	m["client.session_p95_ms"] = percentile(a.lat[primary.name], 95)
	res.samples["ledger.session_p50_ms"] = len(a.lat[primary.name])
	res.samples["client.session_p95_ms"] = len(a.lat[primary.name])
	spans := tr.snapshot()
	var sessions, negotiates []float64
	isPrimary := map[int]bool{}
	for _, s := range spans {
		if s.Name == "session" && s.Program == primary.name {
			isPrimary[s.ID] = true
			sessions = append(sessions, s.ms())
		}
		if s.Name == "negotiate" && isPrimary[s.Parent] {
			negotiates = append(negotiates, s.ms())
		}
	}
	m["client.evaluate_ms"] = median(sessions)
	m["proto.negotiate_ms"] = median(negotiates)
	m["trace_overhead_pct"] = (median(sessions) - p50) / p50 * 100
	res.samples["client.evaluate_ms"] = len(sessions)
	res.samples["proto.negotiate_ms"] = len(negotiates)
	m["minicc.compile_ms"] = median(durations(spans, "minicc.compile"))

	// Server-side counters, once every session's tail has been accounted.
	if err := st.waitServed(ctx, int64(a.attempted+b.attempted+w.warmup*len(st.progs)*len(st.clients))); err != nil {
		return primary, err
	}
	st.collectCounters(m)
	if w.fleet {
		if m["pool.ready_min"] = readyMin; math.IsInf(readyMin, 1) {
			m["pool.ready_min"] = 0 // no pooled program was ever in use
		}
		m["client.sum32_p50_ms"] = median(a.lat[sum32.name])
		res.samples["client.sum32_p50_ms"] = len(a.lat[sum32.name])
		sp := tr.start("probe.gateway", t.root, 0)
		err := st.probeGateway(ctx, &primary, t.exps[primary.name], t.rng, t.phase(), m, res.samples)
		tr.end(sp)
		if err != nil {
			return primary, err
		}
	}
	return primary, nil
}

// probes times each layer's public functions on the primary program,
// each probe under its own span, after the stack is gone.
func (t *tracedRun) probes(ctx context.Context, primary compiled) error {
	w, m, exp := t.w, t.m, t.exps[primary.name]
	probe := func(name string) (done func()) {
		runtime.GC() // the stack's garbage and the previous probe's are not this probe's cost
		sp := t.tr.start("probe."+name, t.root, 0)
		return func() { t.tr.end(sp) }
	}
	done := probe("cpu")
	mach, err := probeCPU(&primary, t.rng, m)
	done()
	if err != nil {
		return err
	}
	// One loopback connection serves every two-party probe. The OT probe
	// goes first and the live stream before the replayed ones, so the
	// table-heavy forms find it warm.
	cp, err := newConnPair()
	if err != nil {
		return err
	}
	defer cp.close()
	done = probe("ot")
	otM, err := probeOT(cp, mach)
	done()
	if err != nil {
		return err
	}
	done = probe("core.live")
	live, liveTrace, liveStats, err := probeCoreLive(mach)
	done()
	if err != nil {
		return err
	}
	done = probe("core.replay")
	replay, err := probeCoreReplay(mach, liveTrace)
	done()
	if err != nil {
		return err
	}
	done = probe("gc")
	gcM := probeGC()
	done()
	for _, src := range []map[string]float64{otM, live, replay, gcM} {
		for k, v := range src {
			m[k] = v
		}
	}
	m["core.trace_mb"] = float64(liveTrace.MemoryBytes()) / 1e6

	// Counts: exact, from Session.Count; the probe's own classified run
	// and every verified session agree with them or the run has failed.
	if liveStats.Cycles != exp.cycles || liveStats.Total != exp.detail {
		return fmt.Errorf("core probe counted %+v, Session.Count %d cycles %+v", liveStats, exp.cycles, exp.detail)
	}
	m["core.cycles_per_session"] = float64(exp.cycles)
	m["core.tables_per_session"] = float64(exp.tables)
	m["core.tables_per_cycle"] = float64(exp.tables) / float64(exp.cycles)
	m["core.filtered_per_session"] = float64(exp.detail.Filtered)
	m["core.free_xor_per_session"] = float64(exp.detail.FreeXOR)
	m["core.public_gates_per_session"] = float64(exp.detail.PublicGates)
	m["core.passthrough_per_session"] = float64(exp.detail.Passthrough)
	m["core.dead_skipped_per_session"] = float64(exp.detail.DeadSkipped)
	m["gc.floor_ms"] = m["gc.garble_ns_per_table"] * float64(exp.tables) / 1e6

	// The table stream in all three forms; stream_* is this workload's own.
	for _, f := range []struct {
		form form
		key  string
	}{{formLive, "live"}, {formReplay, "replay"}, {formRecorded, "recorded"}} {
		done := probe("proto." + f.key)
		pm, err := probeProto(ctx, cp, mach, liveTrace, f.form, w.readAhead)
		done()
		if err != nil {
			return err
		}
		m["proto."+f.key+"_evaluator_ms"] = pm["evaluator_ms"]
		if f.form == formRecorded {
			m["proto.record_ms"] = pm["record_ms"]
		}
		if f.form == w.form() {
			m["proto.stream_garbler_ms"] = pm["garbler_ms"]
			m["proto.stream_evaluator_ms"] = pm["evaluator_ms"]
			m["proto.table_frames"] = pm["table_frames"]
		}
	}
	return nil
}

// ledger adds up the blocking steps of one client-observed session. The
// two parties' core work overlaps on two cores, so the slower party's
// kernel is the one on the critical path.
func (t *tracedRun) ledger() {
	m := t.m
	var coreMs float64
	switch t.w.form() {
	case formLive:
		coreMs = m["core.classify_ms"] + math.Max(m["core.garble_ms"], m["core.eval_ms"]) + m["core.dff_commit_ms"]
	case formReplay:
		coreMs = math.Max(m["core.replay_garble_ms"], m["core.replay_eval_ms"]) + m["core.replay_dff_commit_ms"]
	case formRecorded:
		coreMs = m["core.replay_eval_ms"] + m["core.replay_dff_commit_ms"]
	}
	m["proto.self_ms"] = m["proto.stream_evaluator_ms"] - m["ot.transfer_ms"] - coreMs
	m["ledger.negotiate_ms"] = m["proto.negotiate_ms"]
	m["ledger.ot_ms"] = m["ot.transfer_ms"]
	m["ledger.core_ms"] = coreMs
	m["ledger.proto_self_ms"] = m["proto.self_ms"]
	m["unattributed_ms"] = m["ledger.session_p50_ms"] - (m["ledger.negotiate_ms"] + m["ledger.ot_ms"] + m["ledger.core_ms"] + m["ledger.proto_self_ms"])
	if t.w.fleet {
		m["ledger.gateway_ms"] = m["gateway.relay_overhead_ms"]
		m["unattributed_ms"] -= m["ledger.gateway_ms"]
	}
}

// collectCounters reads what the serving side counted about itself:
// server, pool, trace cache and gateway.
func (st *stack) collectCounters(m map[string]float64) {
	var hits, misses, refills, refillNs int64
	var replays, recordings int64
	for _, be := range st.backends {
		sm := be.srv.Metrics()
		m["server.sessions_failed"] += float64(sm.SessionsFailed)
		m["server.sessions_rejected"] += float64(sm.SessionsRejected)
		m["server.bytes_written"] += float64(sm.BytesWritten)
		m["server.engine_builds"] += float64(sm.EngineBuilds)
		if ga := sm.GarbleAhead; ga != nil {
			hits, misses = hits+ga.Hits, misses+ga.Misses
			refills, refillNs = refills+ga.Refills, refillNs+ga.RefillNanos
		}
		replays += be.eng.TraceReplays()
		recordings += be.eng.TraceRecordings()
	}
	for _, c := range st.clients {
		replays += c.eng.TraceReplays()
		recordings += c.eng.TraceRecordings()
	}
	m["tracecache.replay_ratio"] = 0
	if replays+recordings > 0 {
		m["tracecache.replay_ratio"] = float64(replays) / float64(replays+recordings)
	}
	if st.gw != nil {
		m["pool.hit_ratio"] = float64(hits) / float64(max(hits+misses, 1))
		m["pool.refill_ms_mean"] = float64(refillNs) / float64(max(refills, 1)) / 1e6
		gm := st.gw.Metrics()
		m["gateway.proposals"] = float64(gm.Proposals)
		m["gateway.shed"] = float64(gm.ShedRateLimit + gm.ShedNoBackend)
		var routed, most int64
		for _, be := range gm.Backends {
			routed += be.Routed
			most = max(most, be.Routed)
		}
		m["gateway.backend_share_max"] = float64(most) / float64(max(routed, 1))
	}
}

// probeGateway measures what the relay hop costs one unloaded session:
// a fresh client through the gateway and a fresh client dialled straight
// to the backend that owns the program alternate sessions of it, and the
// difference of their medians is the relay overhead.
func (st *stack) probeGateway(ctx context.Context, p *compiled, exp expect, rng *rand.Rand, lim limit, m map[string]float64, samples map[string]int) error {
	owner := st.backends[0]
	for _, be := range st.backends {
		if be.srv.Metrics().Programs[p.name].Served > owner.srv.Metrics().Programs[p.name].Served {
			owner = be
		}
	}
	var lat [2][]float64
	var clients [2]*evalClient
	for i, addr := range []string{st.addr, owner.addr} {
		c, err := st.dial(ctx, addr)
		if err != nil {
			return err
		}
		defer c.cl.Close()
		clients[i] = c
	}
	for n := -1; n < 3 || !lim.done(n); n++ {
		for i, c := range clients {
			d, err := st.session(ctx, c, p, randWords(rng, p.prog.Layout.BobWords), exp, nil, 0, 0)
			if err != nil {
				return fmt.Errorf("gateway probe: %w", err)
			}
			if n >= 0 { // the first pair records each fresh client's trace
				lat[i] = append(lat[i], ms(d))
			}
		}
	}
	m["gateway.relay_overhead_ms"] = median(lat[0]) - median(lat[1])
	samples["gateway.relay_overhead_ms"] = len(lat[0])
	return nil
}
