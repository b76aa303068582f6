package core

import (
	"fmt"
	"slices"

	"arm2gc/internal/circuit"
	"arm2gc/internal/gc"
)

// Wire states. Public wires carry a Boolean value known to both parties;
// secret wires carry labels (and, in the Scheduler, a fingerprint).
const (
	stPub0 uint8 = iota
	stPub1
	stSecret
)

// Gate actions decided by the Scheduler for the current cycle. They encode
// the paper's categories: actPub covers category i and the public-output
// cases of categories ii–iii; the copy actions are the "gate acts as a
// wire/inverter" cases of categories ii–iii; actXor and actGarble are
// category iv (free and garbled respectively).
const (
	actPub      uint8 = iota // output public; no label
	actCopyA                 // output label = input A's label
	actCopyAInv              // output label = inverse of input A's label
	actCopyB                 // output label = input B's label
	actCopyBInv              // output label = inverse of input B's label
	actCopyS                 // MUX: output label = select's label
	actCopySInv              // MUX: output label = inverse of select's label
	actXor                   // free-XOR combine of two secret labels
	actMuxXor                // MUX with inverted data inputs: out = S ⊕ A (free)
	actGarble                // garbled with one table (category iv non-XOR)
)

// CycleStats counts scheduling outcomes for one cycle (or, summed, a run).
type CycleStats struct {
	Garbled     int // category iv survivors: garbled this cycle (see Stats.Dropped)
	Filtered    int // garbled tables removed by fanout reduction (Alg.4 l.18)
	FreeXOR     int // category-iv XOR/XNOR (no communication)
	PublicGates int // outputs computed locally (cat. i, ii/iii public cases)
	Passthrough int // gates acting as wires/inverters (cat. ii/iii)
	DeadSkipped int // gates never needed this cycle (label_fanout hit 0)
}

// Add accumulates another cycle's counts.
func (s *CycleStats) Add(o CycleStats) {
	s.Garbled += o.Garbled
	s.Filtered += o.Filtered
	s.FreeXOR += o.FreeXOR
	s.PublicGates += o.PublicGates
	s.Passthrough += o.Passthrough
	s.DeadSkipped += o.DeadSkipped
}

// Stats accumulates scheduling outcomes over a whole run. Total is the
// per-cycle SkipGate outcome, exactly what Scheduler.Classify sums; Dropped
// is the garbled tables of Total.Garbled that Compile's cross-cycle
// liveness pass removed because nothing reads their labels before they
// die (zero on a run that classifies live).
type Stats struct {
	Cycles  int
	Total   CycleStats
	Dropped int
}

// Tables returns the garbled tables the run puts on the wire: the
// per-cycle survivors less those the cross-cycle pass dropped.
func (s Stats) Tables() int { return s.Total.Garbled - s.Dropped }

// Scheduler is the shared deterministic decision engine: given the circuit,
// the public input p and the session seed, it computes — identically on
// both sides — the per-cycle fate of every gate: public value, label copy,
// free XOR, garbled, or skipped.
//
// Classify makes two passes. The first decides every gate's action from
// its input wire states and its own static fanout, applying the label
// releases each decision implies (Algorithm 6's recursive reductions) as it
// goes — a gate's decision can never observe a reduction, because
// reductions only cascade backwards from consumers that are classified
// later. The second walks the settled fanouts to derive the cycle
// statistics and — when an executor or recorder is attached — to emit the
// cycle's compiled ops into the scheduler's CycleTrace buffer, the only
// form a cycle is ever executed in.
//
// Between the two, one scan over the flip-flops that can change names the
// ones that do: Algorithm 6's "a gate that acts as a wire consumes no
// label", extended to state. A flip-flop whose next state is its current
// one is not committed by anyone — scheduler or executor — and a copy that
// only feeds such flip-flops is counted but never executed.
type Scheduler struct {
	C *circuit.Circuit

	gen    *fpGen
	deltaF FP

	st  []uint8 // per wire
	fp  []FP    // per wire (valid when st == stSecret)
	fan []int32 // per gate: label_fanout, reset each cycle
	act []uint8 // per gate: action for the current cycle

	fanNormal, fanFinal []int32

	// Flip-flop commit state. scan lists the flip-flops whose D is not their
	// own Q — a ROM bit wired D == Q can never change and is never looked
	// at. changed is the current cycle's gathered commit: the flip-flops
	// whose state or fingerprint moves, with the value Commit scatters.
	// holds counts, per gate, the references from secret flip-flops that
	// keep their value this cycle; settle consumes and zeroes it.
	scan    []int32
	changed []dffCommit
	holds   []int32

	// The current cycle's compiled schedule, rebuilt in place by every
	// Classify once emit is set (NewGarbler, NewEvaluator, NewTraceRecorder
	// and NewSchedule set it; a bare counting scheduler never pays for it).
	// dirtyFF lists, in scan order, the flip-flops the cycle's commit
	// moves a label into; settle resolves them to the trace's slots.
	emit    bool
	ct      CycleTrace
	dirtyFF []int32

	// Label slots (see CycleTrace): the executors' label arrays are
	// indexed by slot, a dense space the compiler assigns in first-use
	// order — the secret inputs first, in circuit.SecretInputs order, then
	// each wire the first time an op or a flip-flop commit names it (a
	// secret output's label is always one of those). width counts the
	// slots assigned so far.
	//
	// ref is, per wire, the slot that holds its label in the cycle last
	// compiled, or -1 before one is named: a plain passthrough emits no op
	// but aliases its output to its source's slot, and every emitted op
	// writes its gate's own slot, own per gate. A port or flip-flop output
	// only ever has its own slot.
	ref   []int32
	own   []int32
	width int32

	// The wave pass's scratch (waves): per slot, the AND depth of the label
	// an op of the cycle wrote (zero between passes); per op, its sort key,
	// then its place in wave order; the per-key counts; and the arrays the
	// ops are sorted into, swapped with ct's. seen is validate's.
	lvl              []int32
	copyLvl, garbLvl []int32
	waveCnt          []int32
	spare            CycleTrace
	seen             []bool

	pub   []bool
	cycle int // 1-based during a cycle; 0 before Start
}

// NewScheduler builds a scheduler for c with public input bits pub.
func NewScheduler(c *circuit.Circuit, seed Seed, pub []bool) *Scheduler {
	s := &Scheduler{
		C:         c,
		gen:       newFPGen(seed),
		st:        make([]uint8, c.NumWires()),
		fp:        make([]FP, c.NumWires()),
		fan:       make([]int32, len(c.Gates)),
		act:       make([]uint8, len(c.Gates)),
		fanNormal: c.Fanout(true),
		fanFinal:  c.Fanout(false),
		holds:     make([]int32, len(c.Gates)),
		ref:       make([]int32, c.NumWires()),
		own:       make([]int32, len(c.Gates)),
		pub:       pub,
	}
	for w := range s.ref {
		s.ref[w] = -1
	}
	for i := range s.own {
		s.own[i] = -1
	}
	for _, in := range c.SecretInputs() {
		s.ref[in.Wire] = s.width
		s.width++
	}
	s.deltaF = s.gen.delta()

	s.st[circuit.Const0] = stPub0
	s.st[circuit.Const1] = stPub1
	for _, p := range c.Ports {
		for b := 0; b < p.Bits; b++ {
			w := p.Base + circuit.Wire(b)
			s.initWire(w, p.Owner, p.Off+b)
		}
	}
	for i, d := range c.DFFs {
		w := c.QWire(i)
		if d.D != w {
			s.scan = append(s.scan, int32(i))
		}
		switch d.Init.Kind {
		case circuit.InitZero:
			s.st[w] = stPub0
		case circuit.InitOne:
			s.st[w] = stPub1
		case circuit.InitPublic:
			s.initWire(w, circuit.Public, d.Init.Idx)
		case circuit.InitAlice:
			s.initWire(w, circuit.Alice, d.Init.Idx)
		case circuit.InitBob:
			s.initWire(w, circuit.Bob, d.Init.Idx)
		}
	}
	return s
}

func (s *Scheduler) initWire(w circuit.Wire, owner circuit.Owner, idx int) {
	if owner == circuit.Public {
		if idx < len(s.pub) && s.pub[idx] {
			s.st[w] = stPub1
		} else {
			s.st[w] = stPub0
		}
		return
	}
	s.st[w] = stSecret
	s.fp[w] = s.gen.input(owner, idx)
}

// Cycle returns the 1-based index of the cycle currently classified (0
// before the first Classify).
func (s *Scheduler) Cycle() int { return s.cycle }

// Classify runs the SkipGate decision pass for the next cycle: the paper's
// Phase 1 and Phase 2 classification plus all recursive label_fanout
// reductions. final marks the last cycle of the run, in which flip-flop
// next-state values are not label consumers — so no flip-flop is scanned
// and nothing is left to commit. Call Commit after the executors have
// processed the cycle.
func (s *Scheduler) Classify(final bool) CycleStats {
	s.cycle++
	src := s.fanNormal
	if final {
		src = s.fanFinal
	}
	copy(s.fan, src)
	s.classify()
	s.ct.reset()
	s.changed = s.changed[:0]
	s.dirtyFF = s.dirtyFF[:0]
	if !final {
		s.scanDFFs()
	}
	return s.settle(src)
}

// classify decides the action of every gate for the current cycle, in gate
// (topological) order. Each decision reads only the states of the gate's
// input wires and the gate's own static fanout, writes that gate's slots —
// act and the output wire state/fingerprint — and releases the input
// labels it turns out not to consume.
func (s *Scheduler) classify() {
	gates := s.C.Gates
	gateBase := int(s.C.GateBase)
	for i := range gates {
		g := &gates[i]
		out := gateBase + i
		sa := s.st[g.A]

		if g.Op.IsUnary() {
			if sa != stSecret {
				v := g.Op.Eval(sa == stPub1, false)
				s.setPub(i, out, v)
				continue
			}
			if g.Op == circuit.NOT {
				s.setCopy(i, out, actCopyAInv, g.A)
			} else {
				s.setCopy(i, out, actCopyA, g.A)
			}
			s.deadCheckUnary(i, g.A)
			continue
		}

		if g.Op == circuit.MUX {
			s.classifyMux(i, out, g)
			continue
		}

		sb := s.st[g.B]
		switch {
		case sa != stSecret && sb != stSecret:
			// Category i: both inputs public.
			s.setPub(i, out, g.Op.Eval(sa == stPub1, sb == stPub1))

		case sa != stSecret || sb != stSecret:
			// Category ii: one public input.
			var p bool
			var secretW circuit.Wire
			var copyAct, copyInvAct uint8
			if sa != stSecret {
				p = sa == stPub1
				secretW = g.B
				copyAct, copyInvAct = actCopyB, actCopyBInv
			} else {
				p = sb == stPub1
				secretW = g.A
				copyAct, copyInvAct = actCopyA, actCopyAInv
			}
			switch g.Op {
			case circuit.AND:
				if p {
					s.setCopy(i, out, copyAct, secretW)
				} else {
					s.setPubRelease(i, out, false, secretW)
				}
			case circuit.OR:
				if p {
					s.setPubRelease(i, out, true, secretW)
				} else {
					s.setCopy(i, out, copyAct, secretW)
				}
			case circuit.NAND:
				if p {
					s.setCopy(i, out, copyInvAct, secretW)
				} else {
					s.setPubRelease(i, out, true, secretW)
				}
			case circuit.NOR:
				if p {
					s.setPubRelease(i, out, false, secretW)
				} else {
					s.setCopy(i, out, copyInvAct, secretW)
				}
			case circuit.XOR:
				if p {
					s.setCopy(i, out, copyInvAct, secretW)
				} else {
					s.setCopy(i, out, copyAct, secretW)
				}
			case circuit.XNOR:
				if p {
					s.setCopy(i, out, copyAct, secretW)
				} else {
					s.setCopy(i, out, copyInvAct, secretW)
				}
			default:
				panic(fmt.Sprintf("core: op %v", g.Op))
			}
			if s.act[i] != actPub {
				s.deadCheckUnary(i, secretW)
			}

		default:
			// Both secret: categories iii and iv.
			fpa, fpb := s.fp[g.A], s.fp[g.B]
			switch {
			case fpa == fpb:
				// Category iii, identical labels.
				switch g.Op {
				case circuit.AND, circuit.OR:
					s.setCopy(i, out, actCopyA, g.A)
					s.reduce(g.B)
					s.deadCheckUnary(i, g.A)
				case circuit.NAND, circuit.NOR:
					s.setCopy(i, out, actCopyAInv, g.A)
					s.reduce(g.B)
					s.deadCheckUnary(i, g.A)
				case circuit.XOR:
					s.setPubRelease2(i, out, false, g.A, g.B)
				case circuit.XNOR:
					s.setPubRelease2(i, out, true, g.A, g.B)
				}
			case fpa.Xor(fpb) == s.deltaF:
				// Category iii, inverted labels.
				var v bool
				switch g.Op {
				case circuit.AND, circuit.NOR, circuit.XNOR:
					v = false
				case circuit.OR, circuit.NAND, circuit.XOR:
					v = true
				}
				s.setPubRelease2(i, out, v, g.A, g.B)
			default:
				// Category iv: unrelated secrets.
				s.st[out] = stSecret
				switch g.Op {
				case circuit.XOR:
					s.act[i] = actXor
					s.fp[out] = fpa.Xor(fpb)
				case circuit.XNOR:
					s.act[i] = actXor
					s.fp[out] = fpa.Xor(fpb).Xor(s.deltaF)
				default:
					s.act[i] = actGarble
					s.fp[out] = s.gen.fresh(s.cycle, i)
				}
				if s.fan[i] == 0 {
					// No consumer can ever need this label this cycle:
					// release the inputs it would have consumed.
					s.reduce(g.A)
					s.reduce(g.B)
				}
			}
		}
	}
}

// settle is the second pass: one walk over the settled fanouts that counts
// the cycle's scheduling outcomes and, when emit is set, compiles every live
// gate into the CycleTrace buffer the executors run — an alias for a plain
// passthrough, copy ops for inverted passthroughs and free XORs, garble ops
// (MUX shape baked in) for surviving category-iv gates, in gate order,
// which is the table-emission order on the wire. A copy-class gate whose
// whole remaining fanout is flip-flops that hold their value is counted
// like any other but not emitted: nobody reads the label it would compute.
// A garbled gate is always emitted, because its table is on the wire. The
// emitted ops are then reordered into AND-depth waves (waves), each keeping
// its table slot. Last, each dirty flip-flop's D is resolved to the slot
// its label lives in and its Q to its own slot, and the cycle is sealed.
func (s *Scheduler) settle(src []int32) CycleStats {
	ct := &s.ct
	var cs CycleStats
	for i, act := range s.act {
		if act == actPub {
			cs.PublicGates++
			continue
		}
		if s.fan[i] <= 0 {
			if act == actGarble && src[i] > 0 {
				// Garbled then filtered (the paper counts these as removed
				// tables), not statically dead this cycle.
				cs.Filtered++
			} else {
				cs.DeadSkipped++
			}
			continue
		}
		switch act {
		case actXor, actMuxXor:
			cs.FreeXOR++
		case actGarble:
			cs.Garbled++
		default:
			cs.Passthrough++
		}
		if !s.emit {
			continue
		}
		if h := s.holds[i]; h != 0 {
			s.holds[i] = 0
			if h == s.fan[i] && act != actGarble {
				continue
			}
		}
		s.emitGate(ct, i, act)
	}
	ct.flush()
	s.waves(ct)
	for _, i := range s.dirtyFF {
		ct.dirtySrc = append(ct.dirtySrc, s.at(s.C.DFFs[i].D))
		ct.dirty = append(ct.dirty, s.at(s.C.QWire(int(i))))
	}
	s.seal(ct)
	ct.Stats = cs
	return cs
}

// at returns the slot w's label lives in this cycle, giving w its own slot
// the first time one is named for it. Only a port or flip-flop output can
// be unnamed when read: gate order is topological, so a gate output an op
// reads was written, or aliased, earlier in the cycle.
func (s *Scheduler) at(w circuit.Wire) int32 {
	if r := s.ref[w]; r >= 0 {
		return r
	}
	s.ref[w] = s.width
	s.width++
	return s.ref[w]
}

// write returns the slot gate i's emitted op writes — the gate's own,
// assigned on its first emission — and points its output wire at it.
func (s *Scheduler) write(i int) int32 {
	if s.own[i] < 0 {
		s.own[i] = s.width
		s.width++
	}
	s.ref[int(s.C.GateBase)+i] = s.own[i]
	return s.own[i]
}

// seal closes compiled cycle ct: its width is the slots assigned so far,
// and it must pass validate, since the kernels' batched hash passes index
// labels and tables by its slots without a check of their own. A cycle
// that fails is a compiler fault, not bad input, so seal panics.
func (s *Scheduler) seal(ct *CycleTrace) {
	ct.width = s.width
	s.seen = slices.Grow(s.seen[:0], ct.NumTables())[:ct.NumTables()]
	if err := ct.validate(len(s.C.Gates), s.seen); err != nil {
		panic(fmt.Sprintf("core: cycle %d compiled out of bounds: %v", s.cycle, err))
	}
}

// waves reorders the cycle compiled in ct from gate order into AND-depth
// waves (traceSeg): a stable counting sort of each op class by depth. A
// label not written this cycle has depth 0; a copy op's output has its
// deepest operand's depth, a garbled op's one more. So a garbled op of
// depth d reads only labels of depth below d, written by earlier waves or
// by its own wave's copies, and no garbled op of its wave; copies of one
// depth keep their gate order, which is topological. Within a wave the
// MUX ops follow the ANDs, so the ANDs form one run for the batched hash.
// Each garbled op keeps its table slot, so the wire still carries tables
// in gate order. A cycle with no garbled op is one wave already.
func (s *Scheduler) waves(ct *CycleTrace) {
	if len(ct.garbKind) == 0 {
		return
	}
	if n := int(s.width); len(s.lvl) < n {
		s.lvl = slices.Grow(s.lvl, n-len(s.lvl))[:n]
	}
	// A copy's sort key is its depth; a garbled op's is 2·(depth−1), plus
	// one for a MUX.
	lvl, cl, gl := s.lvl, s.copyLvl[:0], s.garbLvl[:0]
	var depth int32
	ci, gi := 0, 0
	for _, seg := range ct.segs {
		for end := ci + int(seg.copies); ci < end; ci++ {
			d := max(lvl[ct.copyA[ci]], lvl[ct.copyB[ci]])
			lvl[ct.copyOut[ci]] = d
			cl = append(cl, d)
		}
		for end := gi + int(seg.garbles); gi < end; gi++ {
			d := max(lvl[ct.garbA[gi]], lvl[ct.garbB[gi]], lvl[ct.garbS[gi]]) + 1
			lvl[ct.garbOut[gi]] = d
			key := 2 * (d - 1)
			if ct.garbKind[gi] == tgMux {
				key++
			}
			gl = append(gl, key)
			depth = max(depth, d)
		}
	}
	for _, w := range ct.copyOut {
		lvl[w] = 0
	}
	for _, w := range ct.garbOut {
		lvl[w] = 0
	}
	s.copyLvl, s.garbLvl = cl, gl

	// Wave k is the copies of depth k, then the garbled ops of depth k+1.
	// Every depth from 1 to the deepest has a garbled op, so only the last
	// wave can be empty.
	n := int(depth) + 1
	cnt := slices.Grow(s.waveCnt[:0], 3*n)[:3*n]
	clear(cnt)
	s.waveCnt = cnt
	cc, gcnt := cnt[:n], cnt[n:]
	for _, d := range cl {
		cc[d]++
	}
	for _, key := range gl {
		gcnt[key]++
	}
	ct.segs = ct.segs[:0]
	for k := range n {
		if g := gcnt[2*k] + gcnt[2*k+1]; cc[k] != 0 || g != 0 {
			ct.segs = append(ct.segs, traceSeg{copies: cc[k], garbles: g})
		}
	}
	// Counts become first positions, and each op's key its position.
	var at int32
	for k := range cc {
		cc[k], at = at, at+cc[k]
	}
	at = 0
	for k := range gcnt {
		gcnt[k], at = at, at+gcnt[k]
	}
	for i, d := range cl {
		cl[i] = cc[d]
		cc[d]++
	}
	for i, key := range gl {
		gl[i] = gcnt[key]
		gcnt[key]++
	}
	sp := &s.spare
	ct.copyAct, sp.copyAct = scatter(sp.copyAct, ct.copyAct, cl), ct.copyAct
	ct.copyOut, sp.copyOut = scatter(sp.copyOut, ct.copyOut, cl), ct.copyOut
	ct.copyA, sp.copyA = scatter(sp.copyA, ct.copyA, cl), ct.copyA
	ct.copyB, sp.copyB = scatter(sp.copyB, ct.copyB, cl), ct.copyB
	ct.garbKind, sp.garbKind = scatter(sp.garbKind, ct.garbKind, gl), ct.garbKind
	ct.garbGate, sp.garbGate = scatter(sp.garbGate, ct.garbGate, gl), ct.garbGate
	ct.garbOut, sp.garbOut = scatter(sp.garbOut, ct.garbOut, gl), ct.garbOut
	ct.garbA, sp.garbA = scatter(sp.garbA, ct.garbA, gl), ct.garbA
	ct.garbB, sp.garbB = scatter(sp.garbB, ct.garbB, gl), ct.garbB
	ct.garbS, sp.garbS = scatter(sp.garbS, ct.garbS, gl), ct.garbS
	ct.garbSlot, sp.garbSlot = scatter(sp.garbSlot, ct.garbSlot, gl), ct.garbSlot
}

// scatter returns dst, resized to src's length, holding src[i] at pos[i].
func scatter[T any](dst, src []T, pos []int32) []T {
	dst = slices.Grow(dst[:0], len(src))[:len(src)]
	for i, p := range pos {
		dst[p] = src[i]
	}
	return dst
}

// emitGate compiles live gate i into ct: the one place a scheduler action
// is translated into an executable op. Operands are read through ref (at),
// so an op reads each input from the slot its label lives in, and only the
// inputs it consumes are resolved. A plain passthrough emits nothing: its
// output becomes an alias of its source. Any other op writes its gate's
// own slot (write), named after its operands. Gate order is topological
// and every wire is written once per cycle, so a resolved operand is this
// cycle's label or a flip-flop output, which holds its label until
// CopyDFFs.
func (s *Scheduler) emitGate(ct *CycleTrace, i int, act uint8) {
	g := &s.C.Gates[i]
	out := s.C.GateOut(i)
	switch act {
	case actCopyA:
		s.ref[out] = s.at(g.A)
	case actCopyAInv:
		a := s.at(g.A)
		ct.addCopy(topCopyInv, s.write(i), a, 0)
	case actCopyB:
		s.ref[out] = s.at(g.B)
	case actCopyBInv:
		b := s.at(g.B)
		ct.addCopy(topCopyInv, s.write(i), b, 0)
	case actCopyS:
		s.ref[out] = s.at(g.S)
	case actCopySInv:
		sel := s.at(g.S)
		ct.addCopy(topCopyInv, s.write(i), sel, 0)
	case actXor:
		a, b := s.at(g.A), s.at(g.B)
		if g.Op == circuit.XNOR {
			ct.addCopy(topXorInv, s.write(i), a, b)
		} else {
			ct.addCopy(topXor, s.write(i), a, b)
		}
	case actMuxXor:
		sel, a := s.at(g.S), s.at(g.A)
		ct.addCopy(topXor, s.write(i), sel, a)
	case actGarble:
		if g.Op != circuit.MUX {
			a, b := s.at(g.A), s.at(g.B)
			ct.addGarb(andKind(gc.AndForm(g.Op)), int32(i), s.write(i), a, b, 0)
			return
		}
		// A category-iv MUX with both data inputs secret is the atomic
		// A ⊕ AND(S, A⊕B) form; with one data input public (which has no
		// label under SkipGate) it degenerates to an AND form of S and the
		// other data input: S ? B : p is ¬(S ∧ ¬B) for p = 1 and S ∧ B for
		// p = 0, and S ? p : A is ¬(¬S ∧ ¬A) for p = 1 and ¬S ∧ A for p = 0.
		sa, sb := s.st[g.A], s.st[g.B]
		switch {
		case sa == stSecret && sb == stSecret:
			a, b, sel := s.at(g.A), s.at(g.B), s.at(g.S)
			ct.addGarb(tgMux, int32(i), s.write(i), a, b, sel)
		case sa != stSecret:
			p := sa == stPub1
			sel, b := s.at(g.S), s.at(g.B)
			ct.addGarb(andKind(false, p, p), int32(i), s.write(i), sel, b, 0)
		default:
			p := sb == stPub1
			sel, a := s.at(g.S), s.at(g.A)
			ct.addGarb(andKind(true, p, p), int32(i), s.write(i), sel, a, 0)
		}
	}
}

// classifyMux applies the SkipGate categories to the atomic multiplexer
// out = S ? B : A. A public select makes the MUX a wire to the selected
// input and releases the unselected cone — the paper's illustrative
// example and the reason register-file and memory accesses at public
// addresses are free.
func (s *Scheduler) classifyMux(i, out int, g *circuit.Gate) {
	ss, sa, sb := s.st[g.S], s.st[g.A], s.st[g.B]

	if ss != stSecret {
		// Select public: wire to the chosen input, release the other.
		src, srcSt, act := g.A, sa, actCopyA
		other, otherSt := g.B, sb
		if ss == stPub1 {
			src, srcSt, act = g.B, sb, actCopyB
			other, otherSt = g.A, sa
		}
		if srcSt != stSecret {
			if otherSt == stSecret {
				s.setPubRelease(i, out, srcSt == stPub1, other)
			} else {
				s.setPub(i, out, srcSt == stPub1)
			}
			return
		}
		s.setCopy(i, out, act, src)
		if otherSt == stSecret {
			s.reduce(other)
		}
		s.deadCheckUnary(i, src)
		return
	}

	switch {
	case sa != stSecret && sb != stSecret:
		// Both data inputs public: the MUX computes a function of S alone.
		va, vb := sa == stPub1, sb == stPub1
		switch {
		case va == vb:
			s.setPubRelease(i, out, va, g.S)
		case vb: // out = S ? 1 : 0 = S
			s.setCopy(i, out, actCopyS, g.S)
			s.deadCheckUnary(i, g.S)
		default: // out = S ? 0 : 1 = ¬S
			s.setCopy(i, out, actCopySInv, g.S)
			s.deadCheckUnary(i, g.S)
		}

	case sa == stSecret && sb == stSecret:
		fpa, fpb := s.fp[g.A], s.fp[g.B]
		switch {
		case fpa == fpb:
			// Equal data inputs: wire to A, release S and B.
			s.setCopy(i, out, actCopyA, g.A)
			s.reduce(g.S)
			s.reduce(g.B)
			s.deadCheckUnary(i, g.A)
		case fpa.Xor(fpb) == s.deltaF:
			// B = ¬A, so out = S ⊕ A: free. The select-XOR may itself be
			// degenerate if S and A carry related labels.
			fpx := s.fp[g.S].Xor(fpa)
			switch fpx {
			case (FP{}):
				s.setPubRelease3(i, out, false, g.S, g.A, g.B)
			case s.deltaF:
				s.setPubRelease3(i, out, true, g.S, g.A, g.B)
			default:
				s.act[i] = actMuxXor
				s.st[out] = stSecret
				s.fp[out] = fpx
				s.reduce(g.B)
				if s.fan[i] == 0 {
					s.reduce(g.S)
					s.reduce(g.A)
				}
			}
		default:
			s.setMuxGarble(i, out, g)
		}

	default:
		// Select secret, exactly one data input public: a genuine 2-secret
		// function (AND/OR shape); garbled atomically with one table.
		s.setMuxGarble(i, out, g)
	}
}

// setMuxGarble marks a MUX as garbled (category iv) and, when it has no
// consumers this cycle, releases everything it would have consumed.
func (s *Scheduler) setMuxGarble(i, out int, g *circuit.Gate) {
	s.act[i] = actGarble
	s.st[out] = stSecret
	s.fp[out] = s.gen.fresh(s.cycle, i)
	if s.fan[i] == 0 {
		s.reduce(g.S)
		if s.st[g.A] == stSecret {
			s.reduce(g.A)
		}
		if s.st[g.B] == stSecret {
			s.reduce(g.B)
		}
	}
}

// dffCommit is one gathered flip-flop commit: the state and fingerprint Q
// takes at the end of the cycle.
type dffCommit struct {
	q  circuit.Wire
	st uint8
	fp FP
}

// scanDFFs compares every scanned flip-flop's next state (st[D], fp[D])
// with its current one (st[Q], fp[Q]). It gathers the ones that differ into
// changed for Commit and — for the executors — lists in dirtyFF those
// whose next state is a label Q does not already carry.
// Equal fingerprints mean equal labels (fingerprint.go), so a secret
// flip-flop with an unchanged fingerprint needs no label copy; holds
// records, on the gate driving its D, that this consumer reads nothing.
// This is the gather half of the two-phase commit: a D may be another
// flip-flop's Q, so no Q is written until Commit.
func (s *Scheduler) scanDFFs() {
	c := s.C
	for _, i := range s.scan {
		d, q := c.DFFs[i].D, c.QWire(int(i))
		std, stq := s.st[d], s.st[q]
		if std != stSecret {
			if std != stq {
				s.changed = append(s.changed, dffCommit{q: q, st: std})
			}
			continue
		}
		fpd := s.fp[d]
		if stq == stSecret && fpd == s.fp[q] {
			// Flip-flop references are never released, so the driving gate
			// is live and non-public: settle visits it and zeroes the count.
			if s.emit {
				if gi := c.WireGate(d); gi >= 0 {
					s.holds[gi]++
				}
			}
			continue
		}
		s.changed = append(s.changed, dffCommit{q: q, st: stSecret, fp: fpd})
		if s.emit {
			s.dirtyFF = append(s.dirtyFF, i)
		}
	}
}

// Commit applies the end-of-cycle flip-flop copy — the scatter half: the
// value or label fingerprint gathered from each changed flip-flop's D
// input moves to its Q output for the next cycle.
func (s *Scheduler) Commit() {
	for _, n := range s.changed {
		s.st[n.q] = n.st
		s.fp[n.q] = n.fp
	}
}

func (s *Scheduler) setPub(i, out int, v bool) {
	s.act[i] = actPub
	s.fan[i] = 0
	if v {
		s.st[out] = stPub1
	} else {
		s.st[out] = stPub0
	}
}

// setPubRelease marks the output public and releases one secret input
// reference (whose label the gate will not consume).
func (s *Scheduler) setPubRelease(i, out int, v bool, rel circuit.Wire) {
	s.setPub(i, out, v)
	s.reduce(rel)
}

// setPubRelease2 releases two references.
func (s *Scheduler) setPubRelease2(i, out int, v bool, r1, r2 circuit.Wire) {
	s.setPub(i, out, v)
	s.reduce(r1)
	s.reduce(r2)
}

// setPubRelease3 releases three references (MUX cases).
func (s *Scheduler) setPubRelease3(i, out int, v bool, r1, r2, r3 circuit.Wire) {
	s.setPub(i, out, v)
	s.reduce(r1)
	s.reduce(r2)
	s.reduce(r3)
}

func (s *Scheduler) setCopy(i, out int, act uint8, src circuit.Wire) {
	s.act[i] = act
	s.st[out] = stSecret
	if act == actCopyAInv || act == actCopyBInv || act == actCopySInv {
		s.fp[out] = s.fp[src].Xor(s.deltaF)
	} else {
		s.fp[out] = s.fp[src]
	}
}

// deadCheckUnary releases the single consumed input of a copy-action gate
// that has no consumers itself this cycle.
func (s *Scheduler) deadCheckUnary(i int, consumed circuit.Wire) {
	if s.fan[i] == 0 {
		s.reduce(consumed)
	}
}

// reduce is the paper's recursive_reduction (Algorithm 6): decrement the
// label_fanout of the gate producing w; when it reaches zero the gate's
// label is never needed, so recursively release the inputs it consumed.
func (s *Scheduler) reduce(w circuit.Wire) {
	for {
		gi := s.C.WireGate(w)
		if gi < 0 {
			return // ports, flip-flop outputs and constants cannot be skipped
		}
		if s.fan[gi] == 0 {
			return
		}
		s.fan[gi]--
		if s.fan[gi] != 0 {
			return
		}
		g := &s.C.Gates[gi]
		switch s.act[gi] {
		case actCopyA, actCopyAInv:
			w = g.A
		case actCopyB, actCopyBInv:
			w = g.B
		case actCopyS, actCopySInv:
			w = g.S
		case actMuxXor:
			s.reduce(g.S)
			w = g.A
		case actXor:
			s.reduce(g.A)
			w = g.B
		case actGarble:
			// Releasing a public or port wire is a no-op inside reduce, so
			// every referenced input can be released uniformly.
			if g.Op == circuit.MUX {
				s.reduce(g.S)
			}
			s.reduce(g.A)
			w = g.B
		default:
			return // actPub consumed no labels
		}
	}
}

// LabelSlot returns the label slot that holds w's label in the cycle last
// compiled — the index to hand Garbler.X0 or Evaluator.Active — or -1 when
// no op, commit or input has named one for it. Only wires whose labels the
// cycle's executors compute, or hold, resolve meaningfully.
func (s *Scheduler) LabelSlot(w circuit.Wire) int32 { return s.ref[w] }

// WireState reports the classification of a wire after Classify: public
// value (ok=true) or secret (ok=false).
func (s *Scheduler) WireState(w circuit.Wire) (val bool, public bool) {
	switch s.st[w] {
	case stPub0:
		return false, true
	case stPub1:
		return true, true
	}
	return false, false
}
