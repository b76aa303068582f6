package core

import (
	"fmt"
	"slices"
	"unsafe"

	"arm2gc/internal/gc"
)

// A CycleTrace is the only form a cycle is ever executed in: the
// Scheduler's settle pass compiles each classified cycle into one, ordered
// in AND-depth waves, and Garbler.GarbleCycleTraceAppend /
// Evaluator.EvalCycleTraceBytes — the single gate-execution kernel of each
// party — run it, batching each wave's independent garbled gates through
// the hash. A live cycle is "classify, then run the kernel on the
// scheduler's buffer"; everything else is scheduling around that kernel.
// The wave pass runs once per compiled cycle, so a recorded trace replays
// in wave order without paying for it again.
//
// Classification-trace reuse: the SkipGate schedule depends only on public
// data — the circuit, the public input p and the cycle budget — so it is
// identical for every session of the same program. A Trace keeps one
// classified run's compiled cycles; later sessions feed them to the same
// kernels, skipping Scheduler.Classify entirely and collapsing the hot
// path to fixed-key-AES garbling.
//
// Why replay is sound across sessions: classification consumes labels only
// through fingerprint equality (see fingerprint.go), and fingerprints
// mirror the symbolic XOR algebra of the labels themselves. Two wires'
// fingerprints collide exactly when their symbolic label expressions are
// equal — a seed-independent fact — except with the ~2^-128 AES collision
// probability that intra-session correctness already assumes. Replaying a
// trace under a different session seed therefore adds no new failure mode.

// Copy-op codes of a CycleTrace. A plain copy has no code: the compiler
// resolves it to an alias (Scheduler.emitGate), so its consumers read the
// source's slot. The garbler applies the Inv variants by XORing its global
// delta R into the label; the evaluator, holding active labels, ignores
// the inversion (an inverted wire carries the same label with swapped
// meaning).
const (
	topCopyInv uint8 = iota // garbler: out = src ⊕ R; evaluator: out = src
	topXor                  // out = a ⊕ b
	topXorInv               // garbler: out = a ⊕ b ⊕ R; evaluator: out = a ⊕ b
)

// Garbled-op kinds of a CycleTrace. Every garbled gate but the atomic MUX
// is a half-gates AND with free complements, outInv ⊕ AND(a ⊕ aInv,
// b ⊕ bInv): the compiler (Scheduler.emitGate) sets its three mask bits
// from the gate's operator or, for a MUX with one public data input, from
// that input's value, so the kernels never consult an operator or a
// scheduler. The bits are gc.Ands.Inv's, so an AND's kind is its
// complement mask as the batched hash passes take it.
const (
	tgAInv   = gc.AInv   // complement the first operand
	tgBInv   = gc.BInv   // complement the second operand
	tgOutInv = gc.OutInv // complement the output
	tgMux    = 1 << 3    // both data inputs secret: atomic A ⊕ AND(S, A⊕B)
)

// andKind packs an AND form's complement mask into a garbled-op kind.
func andKind(aInv, bInv, outInv bool) uint8 {
	var k uint8
	if aInv {
		k |= tgAInv
	}
	if bInv {
		k |= tgBInv
	}
	if outInv {
		k |= tgOutInv
	}
	return k
}

// traceSeg is one wave of a compiled cycle: a run of copy ops followed by
// a run of garbled ops. Copies and garbles interleave dependency-wise
// inside a cycle (a garbled gate may read a copied label and vice versa),
// so a cycle cannot be split into one copy pass and one garble pass. The
// compiler (Scheduler.waves) orders each cycle by AND depth instead: wave
// k runs the copies whose inputs are ready after depth k, in gate order,
// then the garbled ops of depth k+1, which read nothing the wave's other
// garbled ops write. The kernels hash a garble run in batches of
// independent gates, several AES blocks per pass.
type traceSeg struct {
	copies  int32
	garbles int32
}

// CycleTrace is one cycle's compiled schedule in struct-of-arrays form:
// parallel arrays per op class, indexed densely in wave order (traceSeg),
// so the kernels touch only the fields they need. The kernels rely on the
// wave order: they hash a wave's garbled ANDs in batches, which is sound
// only because no op of a wave's garble run reads what another writes.
//
// Where a label lives: every operand and output is a label slot, an index
// into the executor's label array, not a netlist wire. Slots are
// trace-local: the compiler assigns them densely in first-use order — the
// secret inputs first, in circuit.SecretInputs order, then each wire the
// first time an op or a flip-flop commit names it — so a run's
// label arrays span the wires its ops touch, not the netlist. width is the
// slots assigned once the cycle is compiled, or the whole trace's once a
// recording is finished, and bounds every slot the cycle names. A plain
// passthrough is compiled away, so it and its consumers read the source's
// slot (Scheduler.LabelSlot), which holds a label of this cycle or a
// flip-flop output stable until CopyDFFs.
type CycleTrace struct {
	Stats   CycleStats // the cycle's scheduling outcome, handed to sinks
	Dropped int        // of Stats.Garbled, the tables Compile's liveness pass dropped
	Halted  bool       // public halt flag fired at the end of this cycle
	width   int32      // label slots the executors hold (see above)

	segs []traceSeg
	open traceSeg // the segment addCopy/addGarb are filling

	// Copy ops (inverted passthroughs, free XORs): out = f(a[, b]).
	copyAct []uint8
	copyOut []int32
	copyA   []int32
	copyB   []int32

	// Garbled ops, in wave order. gate is the producing gate's index,
	// which keys the table's unique gid; slot is the op's index in
	// table-emission order (ascending gate index), where its table sits in
	// the cycle's stretch of the frame.
	garbKind []uint8
	garbGate []int32
	garbOut  []int32
	garbA    []int32
	garbB    []int32
	garbS    []int32
	garbSlot []int32

	// The slots of the flip-flop outputs whose next state is a label their
	// Q does not already carry: all that CopyDFFs commits after this cycle.
	// Empty on a final budget cycle. dirtySrc is, per dirty flip-flop, the
	// slot its D's label lives in.
	dirty    []int32
	dirtySrc []int32
}

// NumTables returns how many garbled tables this cycle puts on the wire.
func (ct *CycleTrace) NumTables() int { return len(ct.garbKind) }

// TableGates appends to dst the gate index of each table the cycle puts on
// the wire, in wire order: a table's half-gates tweak is its cycle's base
// plus this index, so it names the table across traces of one run.
func (ct *CycleTrace) TableGates(dst []int32) []int32 {
	n := len(dst)
	dst = slices.Grow(dst, len(ct.garbGate))[:n+len(ct.garbGate)]
	for i, t := range ct.garbSlot {
		dst[n+int(t)] = ct.garbGate[i]
	}
	return dst
}

// NumCopies returns how many copy ops (inverted passthroughs and free XORs)
// the kernels execute this cycle — at most what CycleStats counts, which
// includes the plain passthroughs, compiled to aliases, and the copies
// only held flip-flops would have read.
func (ct *CycleTrace) NumCopies() int { return len(ct.copyAct) }

// NumDFFs returns how many flip-flop labels CopyDFFs commits after this
// cycle.
func (ct *CycleTrace) NumDFFs() int { return len(ct.dirty) }

// validate checks what the kernels' batched hash passes rely on without a
// check of their own: every op class's arrays are as long as its waves
// say, every slot an op, a commit or a gather names is below the width,
// every gate index is below numGates, and the table slots are a
// permutation of [0, NumTables). seen is scratch of NumTables entries.
func (ct *CycleTrace) validate(numGates int, seen []bool) error {
	var copies, garbles int
	for _, seg := range ct.segs {
		copies += int(seg.copies)
		garbles += int(seg.garbles)
	}
	if n := len(ct.copyAct); copies != n || len(ct.copyOut) != n || len(ct.copyA) != n || len(ct.copyB) != n {
		return fmt.Errorf("waves hold %d copies, copy arrays %d/%d/%d/%d", copies, n, len(ct.copyOut), len(ct.copyA), len(ct.copyB))
	}
	n := len(ct.garbKind)
	if garbles != n || len(ct.garbGate) != n || len(ct.garbOut) != n || len(ct.garbA) != n ||
		len(ct.garbB) != n || len(ct.garbS) != n || len(ct.garbSlot) != n {
		return fmt.Errorf("waves hold %d garbled ops, garbled arrays %d/%d/%d/%d/%d/%d/%d", garbles,
			n, len(ct.garbGate), len(ct.garbOut), len(ct.garbA), len(ct.garbB), len(ct.garbS), len(ct.garbSlot))
	}
	if len(ct.dirty) != len(ct.dirtySrc) {
		return fmt.Errorf("%d dirty flip-flops, %d D slots", len(ct.dirty), len(ct.dirtySrc))
	}
	w := uint32(ct.width)
	for _, slots := range [...][]int32{ct.copyOut, ct.copyA, ct.copyB, ct.garbOut, ct.garbA, ct.garbB, ct.garbS, ct.dirty, ct.dirtySrc} {
		for _, x := range slots {
			if uint32(x) >= w {
				return fmt.Errorf("slot %d outside width %d", x, w)
			}
		}
	}
	for _, g := range ct.garbGate {
		if uint32(g) >= uint32(numGates) {
			return fmt.Errorf("gate %d outside %d gates", g, numGates)
		}
	}
	clear(seen)
	for _, t := range ct.garbSlot {
		if uint32(t) >= uint32(n) || seen[t] {
			return fmt.Errorf("table slots %v are not a permutation of [0, %d)", ct.garbSlot, n)
		}
		seen[t] = true
	}
	return nil
}

// reset empties the trace for the next cycle, keeping the arrays' capacity.
func (ct *CycleTrace) reset() {
	ct.Stats, ct.Dropped, ct.Halted, ct.open = CycleStats{}, 0, false, traceSeg{}
	ct.segs = ct.segs[:0]
	ct.copyAct, ct.copyOut, ct.copyA, ct.copyB = ct.copyAct[:0], ct.copyOut[:0], ct.copyA[:0], ct.copyB[:0]
	ct.garbKind, ct.garbGate = ct.garbKind[:0], ct.garbGate[:0]
	ct.garbOut, ct.garbA, ct.garbB, ct.garbS = ct.garbOut[:0], ct.garbA[:0], ct.garbB[:0], ct.garbS[:0]
	ct.garbSlot = ct.garbSlot[:0]
	ct.dirty, ct.dirtySrc = ct.dirty[:0], ct.dirtySrc[:0]
}

// flush closes the segment being filled.
func (ct *CycleTrace) flush() {
	if ct.open != (traceSeg{}) {
		ct.segs = append(ct.segs, ct.open)
		ct.open = traceSeg{}
	}
}

func (ct *CycleTrace) addCopy(act uint8, out, a, b int32) {
	if ct.open.garbles > 0 {
		ct.flush()
	}
	ct.open.copies++
	ct.copyAct = append(ct.copyAct, act)
	ct.copyOut = append(ct.copyOut, out)
	ct.copyA = append(ct.copyA, a)
	ct.copyB = append(ct.copyB, b)
}

func (ct *CycleTrace) addGarb(kind uint8, gate, out, a, b, sw int32) {
	ct.open.garbles++
	ct.garbSlot = append(ct.garbSlot, int32(len(ct.garbKind)))
	ct.garbKind = append(ct.garbKind, kind)
	ct.garbGate = append(ct.garbGate, gate)
	ct.garbOut = append(ct.garbOut, out)
	ct.garbA = append(ct.garbA, a)
	ct.garbB = append(ct.garbB, b)
	ct.garbS = append(ct.garbS, sw)
}

// muxes returns where the MUX ops of the garble run [i, end) begin: the
// wave pass puts them after the run's ANDs.
func (ct *CycleTrace) muxes(i, end int) int {
	for end > i && ct.garbKind[end-1] == tgMux {
		end--
	}
	return end
}

// ands returns the AND ops [i, end) of a garble run as the batched hash
// passes take them, their gate ids based at base. The kinds of AND ops are
// their complement masks.
func (ct *CycleTrace) ands(i, end int, base uint64) gc.Ands {
	return gc.Ands{A: ct.garbA[i:end], B: ct.garbB[i:end], Out: ct.garbOut[i:end], Table: ct.garbSlot[i:end],
		Gate: ct.garbGate[i:end], Inv: ct.garbKind[i:end], Base: base}
}

// clone returns a copy that does not alias ct's arrays: ct is the
// scheduler's buffer, overwritten by the next Classify.
func (ct *CycleTrace) clone() *CycleTrace {
	cp := *ct
	cp.segs = slices.Clone(ct.segs)
	cp.copyAct, cp.copyOut = slices.Clone(ct.copyAct), slices.Clone(ct.copyOut)
	cp.copyA, cp.copyB = slices.Clone(ct.copyA), slices.Clone(ct.copyB)
	cp.garbKind, cp.garbGate = slices.Clone(ct.garbKind), slices.Clone(ct.garbGate)
	cp.garbOut, cp.garbA = slices.Clone(ct.garbOut), slices.Clone(ct.garbA)
	cp.garbB, cp.garbS = slices.Clone(ct.garbB), slices.Clone(ct.garbS)
	cp.garbSlot = slices.Clone(ct.garbSlot)
	cp.dirty, cp.dirtySrc = slices.Clone(ct.dirty), slices.Clone(ct.dirtySrc)
	return &cp
}

// memoryBytes is the cycle's heap footprint: the struct itself (a dozen
// slice headers and the statistics — a real share of a sparse cycle), its
// slot in the trace's cycle list, and every array's allocated capacity.
func (ct *CycleTrace) memoryBytes() int {
	return int(unsafe.Sizeof(*ct)) + int(unsafe.Sizeof(ct)) +
		cap(ct.segs)*int(unsafe.Sizeof(traceSeg{})) +
		cap(ct.copyAct) + 4*(cap(ct.copyOut)+cap(ct.copyA)+cap(ct.copyB)) +
		cap(ct.garbKind) +
		4*(cap(ct.garbGate)+cap(ct.garbOut)+cap(ct.garbA)+cap(ct.garbB)+cap(ct.garbS)+cap(ct.garbSlot)) +
		4*(cap(ct.dirty)+cap(ct.dirtySrc))
}

// Trace is a compiled classification schedule (Compile) for one (circuit,
// public input, cycle budget, halt flag) tuple, ready for replay by any
// number of sessions. A Trace is immutable once Compile returns it (a bare
// recording, once TraceRecorder.Finish does) and safe for concurrent
// replay.
type Trace struct {
	// One allocation per cycle, so the list's spare capacity is pointers,
	// not cycle structs: a short trace's heap stays near its MemoryBytes.
	cycles []*CycleTrace
	stats  Stats
	halted bool
	width  int32 // label slots, set in every cycle by Finish

	// Final output-wire states (resolved wires, circuit.OutputWires order):
	// public outputs carry their value in the trace; secret outputs are
	// decoded from the labels in the slots outSrc names.
	outPub []bool
	outVal []bool
	outSrc []int32

	bytes int
}

// Width returns how many label slots a replay of the trace holds per
// executor: the distinct wires its ops and flip-flop commits name,
// inputs included.
func (t *Trace) Width() int { return int(t.width) }

// NumCycles returns how many cycles the recorded run executed (at most the
// budget it was recorded under; fewer when the program halted).
func (t *Trace) NumCycles() int { return len(t.cycles) }

// Cycle returns the compiled schedule of 1-based cycle cyc.
func (t *Trace) Cycle(cyc int) *CycleTrace { return t.cycles[cyc-1] }

// TotalStats returns the recorded run's accumulated scheduling statistics:
// Total is exactly what a fresh Classify run would produce, and Dropped
// what Compile's liveness pass removed from it.
func (t *Trace) TotalStats() Stats { return t.stats }

// Halted reports whether the recorded run stopped at the public halt flag.
func (t *Trace) Halted() bool { return t.halted }

// MemoryBytes approximates the trace's heap footprint — what a bounded
// trace cache charges against its budget.
func (t *Trace) MemoryBytes() int { return t.bytes }

// Validate checks a replay request's cycle budget against the budget the
// trace was recorded under. The budget shapes the schedule itself — the
// last budget cycle classifies with final-cycle fanouts (flip-flop
// next-state values are not consumers) — so a trace only replays under the
// exact budget it was recorded with.
func (t *Trace) Validate(cycles int) error {
	switch {
	case len(t.cycles) == 0:
		return fmt.Errorf("core: empty trace")
	case len(t.cycles) > cycles:
		return fmt.Errorf("core: trace of %d cycles exceeds budget %d", len(t.cycles), cycles)
	case !t.halted && len(t.cycles) != cycles:
		return fmt.Errorf("core: trace recorded under budget %d cannot replay under %d", len(t.cycles), cycles)
	}
	return nil
}

// TraceRecorder keeps a classified run's compiled cycles as a Trace. Call
// RecordCycle after every Scheduler.Classify, then Finish after the last
// cycle, before abandoning the scheduler. The scheduler already compiled
// the cycle for the executors, so recording is one copy of its buffer.
type TraceRecorder struct {
	s      *Scheduler
	t      *Trace       // nil once the budget refused the recording
	budget RecordBudget // nil: unbounded
}

// RecordBudget meters a recording's memory: the recorder asks it for
// every byte it keeps (each cycle's, then the final output snapshot's), so
// a Trace's MemoryBytes is exactly what its budget granted. The first
// refusal drops the recording (Compile returns ErrTraceBudget).
type RecordBudget func(bytes int) bool

// NewTraceRecorder starts recording s's run without a budget; create it
// before the first Classify.
func NewTraceRecorder(s *Scheduler) *TraceRecorder {
	s.emit = true
	return &TraceRecorder{s: s, t: &Trace{}}
}

// grant draws n bytes from the budget for the trace, or drops the trace
// when the budget refuses them.
func (r *TraceRecorder) grant(n int) bool {
	if r.budget != nil && !r.budget(n) {
		r.t = nil
		return false
	}
	r.t.bytes += n
	return true
}

// RecordCycle keeps the current classified cycle (between Classify and
// Commit). halted is the public halt verdict for this cycle — replay obeys
// it instead of re-deriving wire states. Once the budget refuses a cycle
// the recorder drops everything it holds and records nothing more, so it
// never holds more than its budget granted plus the refused cycle.
func (r *TraceRecorder) RecordCycle(cs CycleStats, halted bool) {
	if r.t == nil {
		return
	}
	ct := r.s.ct.clone()
	if !r.grant(ct.memoryBytes()) {
		return
	}
	ct.Stats, ct.Halted = cs, halted
	r.t.cycles = append(r.t.cycles, ct)
	r.t.stats.Cycles++
	r.t.stats.Total.Add(cs)
}

// Finish snapshots the final output-wire states and label slots and seals
// the trace, giving every cycle the whole trace's width: a replaying
// executor sizes its label arrays once, at its first cycle. Call it after
// the last recorded cycle; the resolved output wires and slots it reads
// are untouched by Commit, so calling before or after the final Commit is
// equivalent. It returns nil when the budget refused the recording.
func (r *TraceRecorder) Finish(halted bool) *Trace {
	s, t := r.s, r.t
	if t == nil || !r.grant(6*len(s.C.OutputWires())) {
		return nil
	}
	for _, w := range s.C.OutputWires() {
		rw := s.C.ResolveOutput(w)
		v, pub := s.WireState(rw)
		t.outPub = append(t.outPub, pub)
		t.outVal = append(t.outVal, v)
		t.outSrc = append(t.outSrc, s.LabelSlot(rw))
	}
	t.halted, t.width = halted, s.width
	for _, ct := range t.cycles {
		ct.width = s.width
	}
	return t
}
