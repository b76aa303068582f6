package core

import (
	"fmt"
	"slices"
	"unsafe"
)

// A CycleTrace is the only form a cycle is ever executed in: the
// Scheduler's settle pass compiles each classified cycle into one, and
// Garbler.GarbleCycleTrace / Evaluator.EvalCycleTrace — the single
// gate-execution kernel of each party — run it. A live cycle is "classify,
// then run the kernel on the scheduler's buffer"; everything else is
// scheduling around that kernel.
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

// Copy-op codes of a CycleTrace. The garbler applies the Inv variants by
// XORing its global delta R into the copied label; the evaluator, holding
// active labels, ignores the inversion (an inverted wire carries the same
// label with swapped meaning).
const (
	topCopy    uint8 = iota // out = src
	topCopyInv              // garbler: out = src ⊕ R; evaluator: out = src
	topXor                  // out = a ⊕ b
	topXorInv               // garbler: out = a ⊕ b ⊕ R; evaluator: out = a ⊕ b
)

// Garbled-op kinds of a CycleTrace. tgGate carries its circuit.Op in the
// parallel op array; the MUX-derived kinds bake in the shape the scheduler
// derived from the data inputs' wire states, so the kernels never consult
// a scheduler.
const (
	tgGate   uint8 = iota // binary AND-class gate; op array holds the circuit.Op
	tgMux                 // both data inputs secret: atomic A ⊕ AND(S, A⊕B)
	tgAndFF               // out = S ∧ X        (MUX with public-0 A input)
	tgAndFTT              // out = ¬(S ∧ ¬X)    (MUX with public-1 A input)
	tgAndTFF              // out = ¬S ∧ X       (MUX with public-0 B input)
	tgAndTTT              // out = ¬(¬S ∧ ¬X)   (MUX with public-1 B input)
)

// traceSeg is a maximal run of copy ops followed by a run of garbled ops,
// in original gate order. Copies and garbles interleave dependency-wise
// inside a cycle (a garbled gate may read a copied label and vice versa),
// so a cycle cannot be split into one copy pass and one garble pass;
// segments preserve the topological order while still letting the kernels
// run each garbled stretch as a tight, branch-light AES loop.
type traceSeg struct {
	copies  int32
	garbles int32
}

// CycleTrace is one cycle's compiled schedule in struct-of-arrays form:
// parallel arrays per op class, indexed densely in emission order, so the
// kernels touch only the fields they need.
type CycleTrace struct {
	Stats  CycleStats // the cycle's scheduling outcome, handed to sinks
	Halted bool       // public halt flag fired at the end of this cycle

	segs []traceSeg
	open traceSeg // the segment addCopy/addGarb are filling

	// Copy ops (passthroughs, free XORs): out = f(a[, b]).
	copyAct []uint8
	copyOut []int32
	copyA   []int32
	copyB   []int32

	// Garbled ops, in table-emission order (ascending gate index). gate is
	// the producing gate's index, which keys the table's unique gid.
	garbKind []uint8
	garbOp   []uint8
	garbGate []int32
	garbOut  []int32
	garbA    []int32
	garbB    []int32
	garbS    []int32

	// The flip-flops (circuit.DFFs indices) whose next state is a label
	// their Q wire does not already carry: all that CopyDFFs commits after
	// this cycle. Empty on a final budget cycle.
	dirty []int32
}

// NumTables returns how many garbled tables this cycle puts on the wire.
func (ct *CycleTrace) NumTables() int { return len(ct.garbKind) }

// NumCopies returns how many copy ops (passthroughs and free XORs) the
// kernels execute this cycle — at most what CycleStats counts, which
// includes the copies only held flip-flops would have read.
func (ct *CycleTrace) NumCopies() int { return len(ct.copyAct) }

// NumDFFs returns how many flip-flop labels CopyDFFs commits after this
// cycle.
func (ct *CycleTrace) NumDFFs() int { return len(ct.dirty) }

// reset empties the trace for the next cycle, keeping the arrays' capacity.
func (ct *CycleTrace) reset() {
	ct.Stats, ct.Halted, ct.open = CycleStats{}, false, traceSeg{}
	ct.segs = ct.segs[:0]
	ct.copyAct, ct.copyOut, ct.copyA, ct.copyB = ct.copyAct[:0], ct.copyOut[:0], ct.copyA[:0], ct.copyB[:0]
	ct.garbKind, ct.garbOp, ct.garbGate = ct.garbKind[:0], ct.garbOp[:0], ct.garbGate[:0]
	ct.garbOut, ct.garbA, ct.garbB, ct.garbS = ct.garbOut[:0], ct.garbA[:0], ct.garbB[:0], ct.garbS[:0]
	ct.dirty = ct.dirty[:0]
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

func (ct *CycleTrace) addGarb(kind, op uint8, gate, out, a, b, sw int32) {
	ct.open.garbles++
	ct.garbKind = append(ct.garbKind, kind)
	ct.garbOp = append(ct.garbOp, op)
	ct.garbGate = append(ct.garbGate, gate)
	ct.garbOut = append(ct.garbOut, out)
	ct.garbA = append(ct.garbA, a)
	ct.garbB = append(ct.garbB, b)
	ct.garbS = append(ct.garbS, sw)
}

// clone returns a copy that does not alias ct's arrays: ct is the
// scheduler's buffer, overwritten by the next Classify.
func (ct *CycleTrace) clone() CycleTrace {
	cp := *ct
	cp.segs = slices.Clone(ct.segs)
	cp.copyAct, cp.copyOut = slices.Clone(ct.copyAct), slices.Clone(ct.copyOut)
	cp.copyA, cp.copyB = slices.Clone(ct.copyA), slices.Clone(ct.copyB)
	cp.garbKind, cp.garbOp, cp.garbGate = slices.Clone(ct.garbKind), slices.Clone(ct.garbOp), slices.Clone(ct.garbGate)
	cp.garbOut, cp.garbA = slices.Clone(ct.garbOut), slices.Clone(ct.garbA)
	cp.garbB, cp.garbS = slices.Clone(ct.garbB), slices.Clone(ct.garbS)
	cp.dirty = slices.Clone(ct.dirty)
	return cp
}

// memoryBytes is the cycle's heap footprint: the struct itself (a dozen
// slice headers and the statistics — a real share of a sparse cycle) plus
// every array's allocated capacity.
func (ct *CycleTrace) memoryBytes() int {
	return int(unsafe.Sizeof(*ct)) +
		cap(ct.segs)*int(unsafe.Sizeof(traceSeg{})) +
		cap(ct.copyAct) + 4*(cap(ct.copyOut)+cap(ct.copyA)+cap(ct.copyB)) +
		cap(ct.garbKind) + cap(ct.garbOp) +
		4*(cap(ct.garbGate)+cap(ct.garbOut)+cap(ct.garbA)+cap(ct.garbB)+cap(ct.garbS)) +
		4*cap(ct.dirty)
}

// Trace is a recorded classification schedule for one (circuit, public
// input, cycle budget, halt flag) tuple, ready for replay by any number of
// later sessions. A Trace is immutable after TraceRecorder.Finish and safe
// for concurrent replay.
type Trace struct {
	cycles []CycleTrace
	stats  Stats
	halted bool

	// Final output-wire states (resolved wires, circuit.OutputWires order):
	// public outputs carry their value in the trace; secret outputs are
	// decoded from labels as usual.
	outPub []bool
	outVal []bool

	bytes int
}

// NumCycles returns how many cycles the recorded run executed (at most the
// budget it was recorded under; fewer when the program halted).
func (t *Trace) NumCycles() int { return len(t.cycles) }

// Cycle returns the compiled schedule of 1-based cycle cyc.
func (t *Trace) Cycle(cyc int) *CycleTrace { return &t.cycles[cyc-1] }

// TotalStats returns the recorded run's accumulated scheduling statistics
// — exactly those a fresh Classify run would produce.
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
// refusal drops the recording. Unbounded grants every request.
type RecordBudget func(bytes int) bool

// Unbounded is the RecordBudget that grants every request.
func Unbounded(int) bool { return true }

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

// Finish snapshots the final output-wire states and seals the trace. Call
// it after the last recorded cycle; the resolved output wires it reads are
// untouched by Commit, so calling before or after the final Commit is
// equivalent. It returns nil when the budget refused the recording.
func (r *TraceRecorder) Finish(halted bool) *Trace {
	s, t := r.s, r.t
	if t == nil || !r.grant(2*len(s.C.OutputWires())) {
		return nil
	}
	for _, w := range s.C.OutputWires() {
		rw := s.C.ResolveOutput(w)
		v, pub := s.WireState(rw)
		t.outPub = append(t.outPub, pub)
		t.outVal = append(t.outVal, v)
	}
	t.halted = halted
	return t
}
