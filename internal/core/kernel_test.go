package core

import (
	"context"
	"io"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"arm2gc/internal/circuit"
	"arm2gc/internal/circuit/circtest"
	"arm2gc/internal/gc"
	"arm2gc/internal/sim"
)

// TestKernelDifferential checks the one gate-execution kernel against
// plaintext on random netlists: a live run decodes to the simulator's
// outputs; a replay of the trace that run recorded garbles the same number
// of tables with the same per-cycle statistics and decodes to the same
// outputs; and the schedule-only Count reports the executed run's totals.
func TestKernelDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	ctx := context.Background()
	for trial := 0; trial < 25; trial++ {
		c, aBits, bBits := circtest.Random(rng, 60+rng.Intn(900), 4+rng.Intn(30))
		in := sim.Inputs{
			Public: circtest.RandBits(rng, c.PublicBits),
			Alice:  circtest.RandBits(rng, aBits),
			Bob:    circtest.RandBits(rng, bBits),
		}
		cycles := 1 + rng.Intn(6)
		perCycle := func(dst *[]CycleStats) func(int, CycleStats) {
			return func(_ int, cs CycleStats) { *dst = append(*dst, cs) }
		}

		var liveCycles []CycleStats
		live, err := RunLocal(ctx, c, in, RunOpts{Cycles: cycles, Record: Unbounded, Sink: perCycle(&liveCycles)})
		if err != nil {
			t.Fatalf("trial %d: live run: %v", trial, err)
		}
		want := sim.Run(c, in, cycles)
		for i := range want {
			if live.Outputs[i] != want[i] {
				t.Fatalf("trial %d: output %d: live %v, plaintext %v", trial, i, live.Outputs[i], want[i])
			}
		}

		var replayCycles []CycleStats
		replay, err := RunLocal(ctx, c, in, RunOpts{Cycles: cycles, Trace: live.Trace, Sink: perCycle(&replayCycles)})
		if err != nil {
			t.Fatalf("trial %d: replay run: %v", trial, err)
		}
		for i := range want {
			if replay.Outputs[i] != want[i] {
				t.Fatalf("trial %d: output %d: replay %v, plaintext %v", trial, i, replay.Outputs[i], want[i])
			}
		}
		if replay.Stats != live.Stats {
			t.Fatalf("trial %d: replay stats %+v, live %+v", trial, replay.Stats, live.Stats)
		}
		if len(liveCycles) != cycles || len(replayCycles) != cycles {
			t.Fatalf("trial %d: sinks saw %d live and %d replayed cycles, want %d", trial, len(liveCycles), len(replayCycles), cycles)
		}
		for cyc := 1; cyc <= cycles; cyc++ {
			if replayCycles[cyc-1] != liveCycles[cyc-1] {
				t.Fatalf("trial %d: cycle %d: replay stats %+v, live %+v", trial, cyc, replayCycles[cyc-1], liveCycles[cyc-1])
			}
			if got := live.Trace.Cycle(cyc).NumTables(); got != liveCycles[cyc-1].Garbled {
				t.Fatalf("trial %d: cycle %d: trace holds %d garble ops, live run garbled %d", trial, cyc, got, liveCycles[cyc-1].Garbled)
			}
		}

		counted, _, err := Count(ctx, c, in.Public, CountOpts{Cycles: cycles})
		if err != nil {
			t.Fatalf("trial %d: count: %v", trial, err)
		}
		if counted != live.Stats {
			t.Fatalf("trial %d: Count %+v, executed run %+v", trial, counted, live.Stats)
		}
	}
}

// TestKernelTableStreamBounds: the evaluator's kernel refuses a cycle whose
// table stream is short, and hands back what a padded stream left over so
// the caller's "unconsumed tables" check can fire.
func TestKernelTableStreamBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		c, aBits, bBits := circtest.Random(rng, 300, 12)
		in := sim.Inputs{
			Public: circtest.RandBits(rng, c.PublicBits),
			Alice:  circtest.RandBits(rng, aBits),
			Bob:    circtest.RandBits(rng, bBits),
		}
		s := NewScheduler(c, Seed{}, in.Public)
		g := NewGarbler(s, rand.New(rand.NewSource(1)))
		e := NewEvaluator(s)
		if err := deliverInputs(g, e, in); err != nil {
			t.Fatal(err)
		}
		s.Classify(true)
		tables := g.GarbleCycle(nil)
		if len(tables) == 0 {
			continue
		}
		if _, err := e.EvalCycle(tables[:len(tables)-1]); err == nil || !strings.Contains(err.Error(), "table stream exhausted") {
			t.Fatalf("truncated stream: got %v, want a table-stream-exhausted error", err)
		}
		rest, err := e.EvalCycle(append(tables, gc.Table{}))
		if err != nil || len(rest) != 1 {
			t.Fatalf("padded stream: %d tables left over, err %v; want 1, nil", len(rest), err)
		}
		return
	}
	t.Fatal("no random netlist garbled a table in its first cycle")
}

// randomCase draws a random netlist and inputs for all three owners.
func randomCase(rng *rand.Rand, nGates, nDFFs int) (*circuit.Circuit, sim.Inputs) {
	c, aBits, bBits := circtest.Random(rng, nGates, nDFFs)
	return c, sim.Inputs{
		Public: circtest.RandBits(rng, c.PublicBits),
		Alice:  circtest.RandBits(rng, aBits),
		Bob:    circtest.RandBits(rng, bBits),
	}
}

// denseOracle is the test-only reference the sparse flip-flop commit is
// checked against: its own scheduler and executor pair, run the way cycles
// ran before classification named the flip-flops that change. Every live
// gate is executed (no copy is skipped because only held flip-flops read
// it) and every flip-flop's state, fingerprint and labels are copied D → Q
// after every cycle, two-phase. Given the randomness of the executors
// under test it holds, wire for wire, the labels they must hold.
type denseOracle struct {
	s  *Scheduler
	g  *Garbler
	e  *Evaluator
	ct CycleTrace

	nextSt       []uint8
	nextFP       []FP
	nextG, nextE []gc.Label
}

// newDenseOracle prepares the reference run of c on in, drawing labels
// from rnd.
func newDenseOracle(t testing.TB, c *circuit.Circuit, seed Seed, in sim.Inputs, rnd io.Reader) *denseOracle {
	t.Helper()
	s := NewScheduler(c, seed, in.Public)
	o := &denseOracle{
		s: s, g: NewGarbler(s, rnd), e: NewEvaluator(s),
		nextSt: make([]uint8, len(c.DFFs)), nextFP: make([]FP, len(c.DFFs)),
		nextG: make([]gc.Label, len(c.DFFs)), nextE: make([]gc.Label, len(c.DFFs)),
	}
	if err := deliverInputs(o.g, o.e, in); err != nil {
		t.Fatal(err)
	}
	return o
}

// cycle classifies the next cycle and executes every live gate of it on
// both reference executors.
func (o *denseOracle) cycle(t testing.TB, final bool) {
	t.Helper()
	s := o.s
	s.Classify(final)
	o.ct.reset()
	for i, act := range s.act {
		if act != actPub && s.fan[i] > 0 {
			s.emitGate(&o.ct, i, act)
		}
	}
	o.ct.flush()
	tables := o.g.GarbleCycleTrace(&o.ct, s.cycle, nil)
	if rest, err := o.e.EvalCycleTrace(&o.ct, s.cycle, tables); err != nil || len(rest) != 0 {
		t.Fatalf("oracle cycle %d: %d tables left, err %v", s.cycle, len(rest), err)
	}
}

// copyDFFs is the dense commit: every flip-flop, every cycle.
func (o *denseOracle) copyDFFs() {
	c := o.s.C
	for i, d := range c.DFFs {
		o.nextSt[i], o.nextFP[i] = o.s.st[d.D], o.s.fp[d.D]
		o.nextG[i], o.nextE[i] = o.g.x0[d.D], o.e.x[d.D]
	}
	for i := range c.DFFs {
		w := c.QWire(i)
		o.s.st[w], o.s.fp[w] = o.nextSt[i], o.nextFP[i]
		o.g.x0[w], o.e.x[w] = o.nextG[i], o.nextE[i]
	}
}

// checkLabels asserts that every secret Q wire carries the reference's
// labels on both executors under test.
func (o *denseOracle) checkLabels(t testing.TB, g *Garbler, e *Evaluator) {
	t.Helper()
	c := o.s.C
	for i := range c.DFFs {
		w := c.QWire(i)
		if o.s.st[w] != stSecret {
			continue
		}
		if g.X0(w) != o.g.X0(w) {
			t.Fatalf("after cycle %d: flip-flop %d: garbler X0 differs from the dense commit's", o.s.cycle, i)
		}
		if e.Active(w) != o.e.Active(w) {
			t.Fatalf("after cycle %d: flip-flop %d: evaluator active label differs from the dense commit's", o.s.cycle, i)
		}
	}
}

// checkScheduler asserts that s, committed sparsely, holds the reference's
// state and fingerprint on every Q wire.
func (o *denseOracle) checkScheduler(t testing.TB, s *Scheduler) {
	t.Helper()
	c := o.s.C
	for i := range c.DFFs {
		w := c.QWire(i)
		if s.st[w] != o.s.st[w] || (s.st[w] == stSecret && s.fp[w] != o.s.fp[w]) {
			t.Fatalf("after cycle %d: flip-flop %d: scheduler state differs from the dense commit's", o.s.cycle, i)
		}
	}
}

// checkDirtyLists recomputes, by brute force over every flip-flop, what
// the cycle s just classified must commit, and compares both lists.
func checkDirtyLists(t testing.TB, s *Scheduler, final bool) {
	t.Helper()
	c := s.C
	var changed []circuit.Wire
	var dirty []int32
	for i, d := range c.DFFs {
		q := c.QWire(i)
		if final || d.D == q {
			continue
		}
		same := s.st[d.D] == s.st[q] && (s.st[q] != stSecret || s.fp[d.D] == s.fp[q])
		if !same {
			changed = append(changed, q)
			if s.st[d.D] == stSecret {
				dirty = append(dirty, int32(i))
			}
		}
	}
	var got []circuit.Wire
	for _, n := range s.changed {
		got = append(got, n.q)
	}
	if !slices.Equal(got, changed) {
		t.Fatalf("cycle %d: scheduler commits Q wires %v, want %v", s.cycle, got, changed)
	}
	if !slices.Equal(s.ct.dirty, dirty) {
		t.Fatalf("cycle %d: dirty flip-flops %v, want %v", s.cycle, s.ct.dirty, dirty)
	}
}

// RunAgainstDenseOracle drives the production cycle loop — a Schedule
// feeding the two kernels and their CopyDFFs, live and recording when
// opts.Trace is nil, replaying otherwise — in lockstep with a denseOracle,
// and compares flip-flop labels (and, live, scheduler state and the dirty
// lists) after every cycle. It returns what RunLocal would.
func RunAgainstDenseOracle(t testing.TB, c *circuit.Circuit, in sim.Inputs, opts RunOpts) *RunResult {
	t.Helper()
	const labelSeed = 77
	sc, err := NewSchedule(c, in.Public, opts)
	if err != nil {
		t.Fatal(err)
	}
	g := NewReplayGarbler(c, rand.New(rand.NewSource(labelSeed)))
	e := NewReplayEvaluator(c)
	if err := deliverInputs(g, e, in); err != nil {
		t.Fatal(err)
	}
	o := newDenseOracle(t, c, opts.Seed, in, rand.New(rand.NewSource(labelSeed)))
	res := &RunResult{}
	var tables []gc.Table
	for {
		ct := sc.Next()
		final := sc.Cycle() == opts.Cycles
		if sc.s != nil {
			if sc.Cycle() > 1 {
				o.checkScheduler(t, sc.s) // Next committed the previous cycle
			}
			checkDirtyLists(t, sc.s, final)
		}
		for _, i := range ct.dirty {
			if c.DFFs[i].D == c.QWire(int(i)) {
				t.Fatalf("cycle %d: self-loop flip-flop %d is dirty", sc.Cycle(), i)
			}
		}
		if final && len(ct.dirty) != 0 {
			t.Fatalf("final budget cycle %d names dirty flip-flops %v", sc.Cycle(), ct.dirty)
		}
		tables = g.GarbleCycleTrace(ct, sc.Cycle(), tables[:0])
		if rest, err := e.EvalCycleTrace(ct, sc.Cycle(), tables); err != nil || len(rest) != 0 {
			t.Fatalf("cycle %d: %d tables left, err %v", sc.Cycle(), len(rest), err)
		}
		o.cycle(t, final)
		if opts.RecordEveryCycle || sc.Done() {
			if res.Outputs, err = decodeOutputs(sc, g, e); err != nil {
				t.Fatal(err)
			}
			res.PerCycle = append(res.PerCycle, res.Outputs)
		}
		if sc.Done() {
			break
		}
		g.CopyDFFs()
		e.CopyDFFs()
		o.copyDFFs()
		o.checkLabels(t, g, e)
	}
	res.Stats, res.Halted, res.Trace = sc.Stats(), sc.Halted(), sc.Trace()
	return res
}

// TestDenseCommitOracle: on random netlists — whose D wires hit other
// flip-flops' Q wires, gate outputs, ports and their own Q — the sparse
// commit leaves every secret flip-flop with exactly the labels the dense
// copy-every-flip-flop loop leaves, live and replayed.
func TestDenseCommitOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	dirty, unexecuted := 0, 0
	for trial := 0; trial < 25; trial++ {
		c, in := randomCase(rng, 60+rng.Intn(900), 4+rng.Intn(30))
		cycles := 2 + rng.Intn(6)
		want := sim.Run(c, in, cycles)
		live := RunAgainstDenseOracle(t, c, in, RunOpts{Cycles: cycles, Record: Unbounded})
		replay := RunAgainstDenseOracle(t, c, in, RunOpts{Cycles: cycles, Trace: live.Trace})
		if !slices.Equal(live.Outputs, want) || !slices.Equal(replay.Outputs, want) {
			t.Fatalf("trial %d: outputs live %v replay %v, plaintext %v", trial, live.Outputs, replay.Outputs, want)
		}
		for cyc := 1; cyc <= cycles; cyc++ {
			ct := live.Trace.Cycle(cyc)
			dirty += len(ct.dirty)
			unexecuted += ct.Stats.Passthrough + ct.Stats.FreeXOR - len(ct.copyAct)
		}
	}
	if dirty == 0 || unexecuted == 0 {
		t.Fatalf("the netlists committed %d labels and left %d counted copies unexecuted: one mechanism went unexercised", dirty, unexecuted)
	}
	t.Logf("%d labels committed, %d counted copies not executed", dirty, unexecuted)
}

// TestCopyDFFsNoOp: before the first kernel run there is no cycle to
// commit, and the final budget cycle names no flip-flop, so CopyDFFs moves
// no label in either place.
func TestCopyDFFsNoOp(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c, in := randomCase(rng, 400, 20)
	s := NewScheduler(c, Seed{}, in.Public)
	g := NewGarbler(s, rand.New(rand.NewSource(1)))
	e := NewEvaluator(s)
	if err := deliverInputs(g, e, in); err != nil {
		t.Fatal(err)
	}
	unchanged := func(when string) {
		t.Helper()
		x0, x := slices.Clone(g.x0), slices.Clone(e.x)
		g.CopyDFFs()
		e.CopyDFFs()
		if !slices.Equal(g.x0, x0) || !slices.Equal(e.x, x) {
			t.Fatalf("CopyDFFs %s moved a label", when)
		}
	}
	unchanged("before any kernel run")
	const cycles = 4
	moved := false
	for cyc := 1; cyc <= cycles; cyc++ {
		s.Classify(cyc == cycles)
		if _, err := e.EvalCycle(g.GarbleCycle(nil)); err != nil {
			t.Fatal(err)
		}
		if cyc == cycles {
			break
		}
		moved = moved || len(s.ct.dirty) > 0
		g.CopyDFFs()
		e.CopyDFFs()
		s.Commit()
	}
	if !moved {
		t.Fatal("no cycle of the run had a dirty flip-flop: the test proves nothing")
	}
	unchanged("after the final budget cycle")
}

// TestShiftRegisterCommit: in a rotating 4-stage secret shift register
// every D is another flip-flop's Q and every flip-flop is dirty every
// cycle, so a commit that scattered while still gathering would smear one
// label down the chain.
func TestShiftRegisterCommit(t *testing.T) {
	const n = 4
	c := &circuit.Circuit{Name: "rotate", PortBase: 2, DFFBase: 2, GateBase: 2 + n, AliceBits: 2, BobBits: 2}
	var out []circuit.Wire
	for i := 0; i < n; i++ {
		init := circuit.Init{Kind: circuit.InitAlice, Idx: i}
		if i >= 2 {
			init = circuit.Init{Kind: circuit.InitBob, Idx: i - 2}
		}
		c.DFFs = append(c.DFFs, circuit.DFF{D: c.QWire((i + n - 1) % n), Init: init})
		out = append(out, c.QWire(i))
	}
	c.Outputs = []circuit.Output{{Name: "q", Wires: out}}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	in := sim.Inputs{Alice: []bool{true, false}, Bob: []bool{false, true}}

	s := NewScheduler(c, Seed{}, nil)
	g := NewGarbler(s, rand.New(rand.NewSource(9)))
	e := NewEvaluator(s)
	if err := deliverInputs(g, e, in); err != nil {
		t.Fatal(err)
	}
	var x0, x [n]gc.Label
	for i := range x0 {
		x0[i], x[i] = g.X0(c.QWire(i)), e.Active(c.QWire(i))
	}
	for cyc := 1; cyc <= 6; cyc++ {
		s.Classify(false)
		if len(s.ct.dirty) != n || len(s.changed) != n {
			t.Fatalf("cycle %d: %d dirty, %d changed flip-flops; want all %d", cyc, len(s.ct.dirty), len(s.changed), n)
		}
		if _, err := e.EvalCycle(g.GarbleCycle(nil)); err != nil {
			t.Fatal(err)
		}
		g.CopyDFFs()
		e.CopyDFFs()
		s.Commit()
		for i := 0; i < n; i++ {
			from := ((i-cyc)%n + n) % n
			if g.X0(c.QWire(i)) != x0[from] || e.Active(c.QWire(i)) != x[from] {
				t.Fatalf("cycle %d: stage %d does not hold stage %d's initial label", cyc, i, from)
			}
		}
	}
	const cycles = 7
	res, err := RunLocal(context.Background(), c, in, RunOpts{Cycles: cycles, RecordEveryCycle: true})
	if err != nil {
		t.Fatal(err)
	}
	if want := sim.Run(c, in, cycles); !slices.Equal(res.Outputs, want) {
		t.Fatalf("rotated outputs %v, plaintext %v", res.Outputs, want)
	}
}

// TestHeldRegisterOutputCopyEmitted: two secret registers hold their value
// behind a hold-MUX whose public select is 0. The MUX that feeds only its
// own flip-flop is counted as a passthrough but never executed; the one
// whose output is also a circuit output still gets its copy, because the
// decoder reads that label.
func TestHeldRegisterOutputCopyEmitted(t *testing.T) {
	// Wires: 0,1 constants; 2 public en; 3 Bob b; 4,5 the registers' Q;
	// 6 = MUX(en, Q4, b) → D4 and output; 7 = MUX(en, Q5, b) → D5 only.
	c := &circuit.Circuit{
		Name: "hold", PortBase: 2, DFFBase: 4, GateBase: 6,
		PublicBits: 1, AliceBits: 2, BobBits: 1,
		Ports: []circuit.Port{
			{Name: "en", Owner: circuit.Public, Base: 2, Bits: 1},
			{Name: "b", Owner: circuit.Bob, Base: 3, Bits: 1},
		},
		DFFs: []circuit.DFF{
			{D: 6, Init: circuit.Init{Kind: circuit.InitAlice, Idx: 0}},
			{D: 7, Init: circuit.Init{Kind: circuit.InitAlice, Idx: 1}},
		},
		Gates: []circuit.Gate{
			{Op: circuit.MUX, S: 2, A: 4, B: 3},
			{Op: circuit.MUX, S: 2, A: 5, B: 3},
		},
		Outputs: []circuit.Output{{Name: "o", Wires: []circuit.Wire{6}}},
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	in := sim.Inputs{Public: []bool{false}, Alice: []bool{true, false}, Bob: []bool{false}}
	sc, err := NewSchedule(c, in.Public, RunOpts{Cycles: 3})
	if err != nil {
		t.Fatal(err)
	}
	g := NewReplayGarbler(c, gc.CryptoRand)
	e := NewReplayEvaluator(c)
	if err := deliverInputs(g, e, in); err != nil {
		t.Fatal(err)
	}
	ct := sc.Next() // cycle 1 of 3: flip-flops are consumers
	if ct.Stats.Passthrough != 2 {
		t.Fatalf("counted %d passthroughs, want both hold-MUXes", ct.Stats.Passthrough)
	}
	if len(ct.copyOut) != 1 || ct.copyOut[0] != 6 {
		t.Fatalf("emitted copies to wires %v, want only the output-feeding MUX (wire 6)", ct.copyOut)
	}
	if len(ct.dirty) != 0 {
		t.Fatalf("held registers are dirty: %v", ct.dirty)
	}
	g.GarbleCycleTrace(ct, 1, nil)
	if _, err := e.EvalCycleTrace(ct, 1, nil); err != nil {
		t.Fatal(err)
	}
	out, err := decodeOutputs(sc, g, e)
	if err != nil {
		t.Fatal(err)
	}
	if !out[0] {
		t.Fatal("held register decodes to 0, Alice's bit is 1")
	}
}

// TestTraceMemoryBytes: what the trace cache charges covers every cycle's
// struct — slice headers are a real share of a sparse cycle — and every
// array's capacity, the dirty list included.
func TestTraceMemoryBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	c, in := randomCase(rng, 500, 24)
	res, err := RunLocal(context.Background(), c, in, RunOpts{Cycles: 5, Record: Unbounded})
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace
	if floor := tr.NumCycles() * int(unsafe.Sizeof(CycleTrace{})); tr.MemoryBytes() < floor {
		t.Fatalf("MemoryBytes %d is below %d cycles of bare struct (%d)", tr.MemoryBytes(), tr.NumCycles(), floor)
	}
	var short, long CycleTrace
	short.dirty = make([]int32, 1)
	long.dirty = make([]int32, 1000)
	short, long = short.clone(), long.clone()
	if s, l := short.memoryBytes(), long.memoryBytes(); l < s+4*999 {
		t.Fatalf("memoryBytes ignores the dirty list: %d entries cost %d, 1 costs %d", len(long.dirty), l, s)
	}
}
