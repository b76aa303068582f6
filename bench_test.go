package arm2gc

// One benchmark per table and figure of the paper's evaluation (the same
// generators cmd/arm2gc-bench uses), plus microbenchmarks of the
// throughput-critical primitives: half-gates garbling, the SkipGate
// scheduler on the processor netlist, and full crypto per processor cycle.
//
// Run: go test -bench=. -benchmem

import (
	"context"
	"net"
	"testing"
	"time"

	"arm2gc/internal/bencher"
	"arm2gc/internal/core"
	"arm2gc/internal/cpu"
	"arm2gc/internal/gc"
	"arm2gc/internal/obliv"
	"arm2gc/internal/sim"
)

func benchTable(b *testing.B, f func() (*bencher.Table, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		t, err := f()
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable1_SkipGateOnHDLCircuits(b *testing.B) {
	benchTable(b, func() (*bencher.Table, error) { return bencher.Table1(false) })
}

func BenchmarkTable2_ARM2GCvsHDL(b *testing.B) {
	benchTable(b, func() (*bencher.Table, error) { return bencher.Table2(false) })
}

func BenchmarkTable3_ARM2GCvsFrameworks(b *testing.B) {
	benchTable(b, func() (*bencher.Table, error) { return bencher.Table3(false) })
}

func BenchmarkTable4_SkipGateOnARM(b *testing.B) {
	benchTable(b, func() (*bencher.Table, error) { return bencher.Table4(false) })
}

func BenchmarkTable5_ComplexFunctions(b *testing.B) {
	benchTable(b, func() (*bencher.Table, error) { return bencher.Table5(false) })
}

func BenchmarkTable6_FrameworkFeatures(b *testing.B) {
	benchTable(b, bencher.Table6)
}

func BenchmarkMIPS_InstructionLevelBaseline(b *testing.B) {
	benchTable(b, bencher.MIPSTable)
}

func BenchmarkFigure1_Phase1Rewrites(b *testing.B) { benchTable(b, bencher.Figure1) }
func BenchmarkFigure2_Phase2Rewrites(b *testing.B) { benchTable(b, bencher.Figure2) }
func BenchmarkFigure3_RecursiveReduction(b *testing.B) {
	benchTable(b, bencher.Figure3)
}
func BenchmarkFigure5_ConditionalExecution(b *testing.B) { benchTable(b, bencher.Figure5) }
func BenchmarkFigure6_SecretBranchBlowup(b *testing.B)   { benchTable(b, bencher.Figure6) }

func BenchmarkAblationMuxCell(b *testing.B)       { benchTable(b, bencher.AblationMuxCell) }
func BenchmarkAblationObliviousScan(b *testing.B) { benchTable(b, bencher.AblationObliviousScan) }
func BenchmarkAblationZFlag(b *testing.B)         { benchTable(b, bencher.AblationZFlag) }

// --- Oblivious-memory crossover (make bench-oram) ---

// memAccessBench counts garbled tables per data-memory access for one
// backend on the 512-word (2KB) relaxation workload — above the
// scan/ORAM break-even, where the square-root ORAM must come in under
// the scan. The count is an exact property of the schedule (no crypto,
// no jitter), so the tables/access metric gates machine-independently
// in bench-compare; regressing either backend past the threshold — or
// losing the ORAM's win — fails the gate.
func memAccessBench(b *testing.B, backend string) {
	// 256 gather loads + 16 scatter stores + 1 readback load.
	const accesses = 273
	w := bencher.RelaxWorkload(512)
	var perAccess float64
	for i := 0; i < b.N; i++ {
		res, err := bencher.RunOnCPUMem(w, obliv.Config{Backend: backend})
		if err != nil {
			b.Fatal(err)
		}
		perAccess = float64(res.Garbled()) / accesses
	}
	b.ReportMetric(perAccess, "tables/access")
}

func BenchmarkMemAccessScan(b *testing.B)     { memAccessBench(b, obliv.Scan) }
func BenchmarkMemAccessSqrtORAM(b *testing.B) { memAccessBench(b, obliv.SqrtORAM) }

// --- Primitive throughput ---

func BenchmarkHalfGatesGarble(b *testing.B) {
	h := gc.NewHash()
	r := gc.RandDelta(gc.CryptoRand)
	a0 := gc.RandLabel(gc.CryptoRand)
	b0 := gc.RandLabel(gc.CryptoRand)
	b.ReportAllocs()
	b.SetBytes(gc.TableBytes)
	for i := 0; i < b.N; i++ {
		_, _ = gc.GarbleAnd(h, r, a0, b0, uint64(i))
	}
}

func BenchmarkHalfGatesEval(b *testing.B) {
	h := gc.NewHash()
	r := gc.RandDelta(gc.CryptoRand)
	a0 := gc.RandLabel(gc.CryptoRand)
	b0 := gc.RandLabel(gc.CryptoRand)
	c0, tab := gc.GarbleAnd(h, r, a0, b0, 1)
	_ = c0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = gc.EvalAnd(h, a0, b0, tab, 1)
	}
}

func cpuForBench(b *testing.B) (*cpu.CPU, []bool, int) {
	b.Helper()
	w := bencher.HammingWorkload(160)
	p, _, err := w.Program()
	if err != nil {
		b.Fatal(err)
	}
	c, err := cpu.Build(p.Layout)
	if err != nil {
		b.Fatal(err)
	}
	pub, err := c.PublicBits(p)
	if err != nil {
		b.Fatal(err)
	}
	return c, pub, 470 // emulator-measured cycle count for this workload
}

// BenchmarkSchedulerCycle measures the SkipGate decision pass (no crypto)
// per processor clock cycle — the local-computation price the paper trades
// for communication.
func BenchmarkSchedulerCycle(b *testing.B) {
	c, pub, _ := cpuForBench(b)
	s := core.NewScheduler(c.Circuit, core.Seed{}, pub)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Classify(false)
		s.Commit()
	}
	b.ReportMetric(float64(len(c.Circuit.Gates)), "gates/cycle")
}

// BenchmarkTraceReplay measures the garbler's cost when the SkipGate
// pass is already compiled into a trace (WithTraceReuse warm path): no
// classification, just the surviving label ops and the few garbled
// tables, straight from the trace's gate lists. Each op replays the
// full recorded run; the ns/cycle metric sits next to
// BenchmarkSchedulerCycle's ns/op — the classify-only price per cycle
// that replay removes — and the baseline keeps replay several times
// cheaper. dffs/cycle (flip-flop labels committed) and copies/cycle (copy
// ops executed) are exact properties of the trace: the work replay does
// besides its tables.
func BenchmarkTraceReplay(b *testing.B) {
	c, pub, cycles := cpuForBench(b)
	res, err := core.RunLocal(context.Background(), c.Circuit, sim.Inputs{Public: pub},
		core.RunOpts{Cycles: cycles, Record: true})
	if err != nil {
		b.Fatal(err)
	}
	tr := res.Trace
	n := tr.NumCycles()
	dffs, copies := 0, 0
	for cyc := 1; cyc <= n; cyc++ {
		dffs += tr.Cycle(cyc).NumDFFs()
		copies += tr.Cycle(cyc).NumCopies()
	}
	g := core.NewReplayGarbler(c.Circuit, gc.CryptoRand)
	var tables []gc.Table
	garbled := 0
	b.ReportAllocs()
	b.ResetTimer()
	// One op = one whole warm session's garbling (every recorded cycle),
	// so the measurement window is milliseconds even at small -benchtime.
	for i := 0; i < b.N; i++ {
		for cyc := 1; cyc <= n; cyc++ {
			tables = g.GarbleCycleTrace(tr.Cycle(cyc), cyc, tables[:0])
			garbled += len(tables)
			g.CopyDFFs()
		}
	}
	b.ReportMetric(float64(garbled)/float64(b.N*n), "tables/cycle")
	b.ReportMetric(float64(dffs)/float64(n), "dffs/cycle")
	b.ReportMetric(float64(copies)/float64(n), "copies/cycle")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/cycle")
}

// BenchmarkGarbledProcessorCycle measures a full crypto cycle (scheduler +
// garbler + evaluator) on the processor: the production loop of a live
// session, a Schedule feeding the two kernels. dffs/cycle and copies/cycle
// are exact for the program's first b.N cycles, so they compare between
// runs at the same -benchtime.
func BenchmarkGarbledProcessorCycle(b *testing.B) {
	c, pub, _ := cpuForBench(b)
	// A budget one past b.N keeps every measured cycle an ordinary one:
	// the final budget cycle commits no flip-flop.
	sc, err := core.NewSchedule(c.Circuit, pub, core.RunOpts{Cycles: b.N + 1})
	if err != nil {
		b.Fatal(err)
	}
	g := core.NewReplayGarbler(c.Circuit, gc.CryptoRand)
	e := core.NewReplayEvaluator(c.Circuit)
	pairs := g.BobPairs()
	chosen := make([]gc.Label, len(pairs))
	for i := range pairs {
		chosen[i] = pairs[i][0]
	}
	if err := e.SetInputs(g.AliceActiveLabels(nil), chosen); err != nil {
		b.Fatal(err)
	}
	var tables []gc.Table
	dffs, copies := 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ct := sc.Next()
		tables = g.GarbleCycleTrace(ct, sc.Cycle(), tables[:0])
		if _, err := e.EvalCycleTrace(ct, sc.Cycle(), tables); err != nil {
			b.Fatal(err)
		}
		g.CopyDFFs()
		e.CopyDFFs()
		dffs += ct.NumDFFs()
		copies += ct.NumCopies()
	}
	b.ReportMetric(float64(dffs)/float64(b.N), "dffs/cycle")
	b.ReportMetric(float64(copies)/float64(b.N), "copies/cycle")
}

// BenchmarkConventionalGCCycle garbles the whole processor conventionally
// (the paper's w/o-SkipGate column) for one cycle — the cost SkipGate
// removes.
func BenchmarkConventionalGCCycle(b *testing.B) {
	c, _, _ := cpuForBench(b)
	g := gc.NewGarbler(c.Circuit, gc.CryptoRand)
	var tables []gc.Table
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tables = g.GarbleCycle(tables[:0])
	}
	b.ReportMetric(float64(len(tables)*gc.TableBytes), "bytes/cycle")
}

// BenchmarkEndToEndSum32 runs the complete garbled execution of the Sum 32
// program (the paper's headline example) through the Engine API.
func BenchmarkEndToEndSum32(b *testing.B) {
	prog, _, err := CompileC("sum", "void gc_main(const int *a, const int *b, int *c) { c[0] = a[0] + b[0]; }",
		Layout{IMemWords: 64, AliceWords: 1, BobWords: 1, OutWords: 1, ScratchWords: 8})
	if err != nil {
		b.Fatal(err)
	}
	eng := NewEngine()
	sess, err := eng.Session(prog, WithMaxCycles(1000))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		info, err := sess.Run(ctx, []uint32{uint32(i)}, []uint32{7})
		if err != nil {
			b.Fatal(err)
		}
		if info.Outputs[0] != uint32(i)+7 {
			b.Fatal("wrong sum")
		}
	}
}

// BenchmarkEngineSessionReuse guards the machine cache: creating a
// session on a cold Engine pays the ~10ms netlist synthesis; every
// subsequent session for the same Layout must find the machine for free
// (the warm case runs Session + a schedule-only Count to show the
// end-to-end reuse path, and asserts zero extra builds).
func BenchmarkEngineSessionReuse(b *testing.B) {
	prog, _, err := CompileC("sum", "void gc_main(const int *a, const int *b, int *c) { c[0] = a[0] + b[0]; }",
		Layout{IMemWords: 64, AliceWords: 1, BobWords: 1, OutWords: 1, ScratchWords: 8})
	if err != nil {
		b.Fatal(err)
	}

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng := NewEngine()
			if _, err := eng.Session(prog, WithMaxCycles(1000)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		eng := NewEngine()
		if _, err := eng.Session(prog, WithMaxCycles(1000)); err != nil {
			b.Fatal(err)
		}
		// A warm session costs a few hundred ns; batch them so the
		// measurement window is far above scheduler jitter even at
		// small -benchtime. ns/session is the per-session cost.
		const batch = 1024
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < batch; j++ {
				if _, err := eng.Session(prog, WithMaxCycles(1000)); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/session")
		if got := eng.Builds(); got != 1 {
			b.Fatalf("warm sessions rebuilt the netlist: %d builds", got)
		}
	})
}

// slowConn models a link with per-write transmission time: each Write
// costs latency wall-clock before the bytes move. Over a raw net.Pipe a
// write completes the moment the peer reads, so frame I/O is free and
// serial garbling already overlaps with peer compute; the latency is what
// a real network adds and what the pipelined garbler hides.
type slowConn struct {
	net.Conn
	latency time.Duration
}

func (c slowConn) Write(p []byte) (int, error) {
	time.Sleep(c.latency)
	return c.Conn.Write(p)
}

// benchTwoParty runs complete two-party executions of the Hamming
// workload over net.Pipe with 1ms of garbler-side write latency, the
// garbler pipelining `pipeline` frames ahead of the writer (0 = the
// serial path).
func benchTwoParty(b *testing.B, pipeline int) {
	w := bencher.HammingWorkload(160)
	prog, _, err := w.Program()
	if err != nil {
		b.Fatal(err)
	}
	eng := NewEngine()
	opts := []Option{WithMaxCycles(1000), WithCycleBatch(8), WithPipeline(pipeline)}
	alice := make([]uint32, prog.Layout.AliceWords)
	bob := make([]uint32, prog.Layout.BobWords)
	for i := range alice {
		alice[i] = 0xa5a5a5a5
	}
	for i := range bob {
		bob[i] = uint32(0x5a5a5a5a + i)
	}
	if _, err := eng.Session(prog, opts...); err != nil { // pay the netlist build untimed
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gs, err := eng.Session(prog, opts...)
		if err != nil {
			b.Fatal(err)
		}
		es, err := eng.Session(prog, opts...)
		if err != nil {
			b.Fatal(err)
		}
		ca, cb := net.Pipe()
		done := make(chan error, 1)
		go func() {
			_, err := gs.Garble(ctx, slowConn{Conn: ca, latency: time.Millisecond}, alice)
			done <- err
		}()
		if _, err := es.Evaluate(ctx, cb, bob); err != nil {
			b.Fatal(err)
		}
		if err := <-done; err != nil {
			b.Fatal(err)
		}
		ca.Close()
		cb.Close()
	}
}

// BenchmarkGarblerPipeline compares the serial and pipelined garbler
// paths end to end (`make bench-pipeline`). Over net.Pipe each write
// rendezvous with the evaluator's read, so the serial path alternates
// compute and I/O while the pipelined one overlaps them; the gap between
// the two sub-benchmarks is the overlap won.
func BenchmarkGarblerPipeline(b *testing.B) {
	b.Run("serial", func(b *testing.B) { benchTwoParty(b, 0) })
	b.Run("pipeline4", func(b *testing.B) { benchTwoParty(b, 4) })
}

// benchOnlineSession times the online phase of complete two-party
// Hamming sessions over net.Pipe: the garbler either garbles live inside
// the session (cold) or serves a stream pre-garbled offline by
// Session.Record (pooled — the Server's garble-ahead path). The
// evaluator replays a warm classification trace and reads ahead in both
// variants, so the gap between them is exactly the garbling work the
// offline phase moved off the critical path. The 512-bit workload keeps
// the per-cycle work dominant over the fixed per-session handshake-and-OT
// cost both variants pay. Recording happens with the timer stopped —
// that is the offline phase by definition.
func benchOnlineSession(b *testing.B, pooled bool) {
	w := bencher.HammingWorkload(512)
	prog, _, err := w.Program()
	if err != nil {
		b.Fatal(err)
	}
	eng := NewEngine()
	alice := make([]uint32, prog.Layout.AliceWords)
	bob := make([]uint32, prog.Layout.BobWords)
	for i := range alice {
		alice[i] = 0xa5a5a5a5
	}
	for i := range bob {
		bob[i] = uint32(0x5a5a5a5a + i)
	}
	gopts := []Option{WithMaxCycles(4000), WithCycleBatch(8), WithGarblerInput(alice)}
	eopts := []Option{WithMaxCycles(4000), WithCycleBatch(8), WithTraceReuse(), WithReadAhead(4)}
	ctx := context.Background()
	runOnce := func(rec *RecordedStream) {
		gs, err := eng.Session(prog, gopts...)
		if err != nil {
			b.Fatal(err)
		}
		es, err := eng.Session(prog, eopts...)
		if err != nil {
			b.Fatal(err)
		}
		ca, cb := net.Pipe()
		done := make(chan error, 1)
		go func() {
			var err error
			if rec != nil {
				_, err = gs.GarbleRecorded(ctx, ca, rec)
			} else {
				_, err = gs.Garble(ctx, ca, nil)
			}
			done <- err
		}()
		if _, err := es.Evaluate(ctx, cb, bob); err != nil {
			b.Fatal(err)
		}
		if err := <-done; err != nil {
			b.Fatal(err)
		}
		ca.Close()
		cb.Close()
	}
	runOnce(nil) // untimed: netlist build + the evaluator's trace recording
	rs, err := eng.Session(prog, append(gopts[:len(gopts):len(gopts)], WithTraceReuse())...)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var rec *RecordedStream
		if pooled {
			b.StopTimer()
			if rec, err = rs.Record(ctx); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		runOnce(rec)
	}
}

// BenchmarkColdSession is the online phase with no pool: the garbler
// classifies and garbles every table inside the session.
func BenchmarkColdSession(b *testing.B) { benchOnlineSession(b, false) }

// BenchmarkPooledSession is the online phase served from a pre-garbled
// stream — handshake, OT and frame I/O only, the state a garble-ahead
// pool hit puts the server in. The baseline keeps it several times
// cheaper than BenchmarkColdSession (`make bench-compare` gates the
// ratio's two sides).
func BenchmarkPooledSession(b *testing.B) { benchOnlineSession(b, true) }

// BenchmarkPlainSimCPU is the plaintext-simulation floor for the same
// processor netlist.
func BenchmarkPlainSimCPU(b *testing.B) {
	c, pub, _ := cpuForBench(b)
	s := sim.New(c.Circuit, sim.Inputs{Public: pub})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}
