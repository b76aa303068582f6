package core

import (
	"bytes"
	"fmt"
	"io"
	"slices"

	"arm2gc/internal/circuit"
	"arm2gc/internal/gc"
)

// Garbler is Alice's crypto executor: it runs compiled cycles through its
// one kernel, GarbleCycleTraceAppend, doing label work only for the gates
// the schedule kept. S is the scheduler it was attached to by NewGarbler, or
// nil for an executor fed CycleTraces from elsewhere (NewReplayGarbler).
type Garbler struct {
	S *Scheduler
	R gc.Label

	c       *circuit.Circuit
	h       *gc.Hash
	x0      []gc.Label
	alice   []gc.Label // X0 per Alice input bit
	bob     []gc.Label // X0 per Bob input bit
	dirty   []int32    // dirty flip-flops of the cycle the kernel last ran
	dSrc    []int32    // the slots their D labels live in
	dffNext []gc.Label // CopyDFFs' gather buffer
	scratch []byte     // GarbleCycleTrace's table bytes
}

// NewGarbler creates Alice's executor attached to a scheduler — from then
// on every Classify compiles the cycle for GarbleCycle — drawing labels
// from rnd. Create it before the first Classify.
func NewGarbler(s *Scheduler, rnd io.Reader) *Garbler {
	s.emit = true
	g := NewReplayGarbler(s.C, rnd)
	g.S = s
	return g
}

// NewReplayGarbler creates Alice's executor with no scheduler: the caller
// hands GarbleCycleTrace its cycles, from a Schedule or a recorded Trace.
// The label draws (R, then Alice's bits, then Bob's) happen in one fixed
// order, so executors given the same randomness produce the same labels —
// and therefore the same wire bytes — however their cycles are sourced.
func NewReplayGarbler(c *circuit.Circuit, rnd io.Reader) *Garbler {
	g := &Garbler{
		c:     c,
		R:     gc.RandDelta(rnd),
		h:     gc.NewHash(),
		x0:    make([]gc.Label, c.NumWires()),
		alice: make([]gc.Label, c.AliceBits),
		bob:   make([]gc.Label, c.BobBits),
	}
	for i := range g.alice {
		g.alice[i] = gc.RandLabel(rnd)
	}
	for i := range g.bob {
		g.bob[i] = gc.RandLabel(rnd)
	}
	forEachSecretInit(c, func(w circuit.Wire, owner circuit.Owner, idx int) {
		if owner == circuit.Alice {
			g.x0[w] = g.alice[idx]
		} else {
			g.x0[w] = g.bob[idx]
		}
	})
	return g
}

// ReadReplayGarbler is NewReplayGarbler for a randomness source that can
// fail — the OS RNG, a caller's reader. It reads the 16·(1 + AliceBits +
// BobBits) label bytes up front and returns a short read as an error,
// where NewReplayGarbler would panic mid-draw. The bytes are consumed in
// NewReplayGarbler's order, so the labels, and the wire, are identical.
func ReadReplayGarbler(c *circuit.Circuit, rnd io.Reader) (*Garbler, error) {
	buf := make([]byte, 16*(1+c.AliceBits+c.BobBits))
	if _, err := io.ReadFull(rnd, buf); err != nil {
		return nil, fmt.Errorf("core: label randomness: %w", err)
	}
	return NewReplayGarbler(c, bytes.NewReader(buf)), nil
}

// forEachSecretInit visits every wire initialized from a party input bit
// (ports and flip-flop initial values). Public and constant
// initializations carry no labels under SkipGate.
func forEachSecretInit(c *circuit.Circuit, f func(w circuit.Wire, owner circuit.Owner, idx int)) {
	for _, p := range c.Ports {
		if p.Owner == circuit.Public {
			continue
		}
		for b := 0; b < p.Bits; b++ {
			f(p.Base+circuit.Wire(b), p.Owner, p.Off+b)
		}
	}
	for i, d := range c.DFFs {
		switch d.Init.Kind {
		case circuit.InitAlice:
			f(c.QWire(i), circuit.Alice, d.Init.Idx)
		case circuit.InitBob:
			f(c.QWire(i), circuit.Bob, d.Init.Idx)
		}
	}
}

// AliceActiveLabels returns the active labels for Alice's own input bits,
// which she sends to Bob directly.
func (g *Garbler) AliceActiveLabels(vals []bool) []gc.Label {
	out := make([]gc.Label, len(g.alice))
	for i, x0 := range g.alice {
		out[i] = x0
		if i < len(vals) && vals[i] {
			out[i] = out[i].Xor(g.R)
		}
	}
	return out
}

// BobPairs returns the (X0, X1) pairs for Bob's input bits, delivered by
// oblivious transfer.
func (g *Garbler) BobPairs() [][2]gc.Label {
	ps := make([][2]gc.Label, len(g.bob))
	for i, x0 := range g.bob {
		ps[i] = [2]gc.Label{x0, x0.Xor(g.R)}
	}
	return ps
}

// GarbleCycle performs Alice's side of the current classified cycle
// (between Scheduler.Classify and Scheduler.Commit): the kernel run on the
// attached scheduler's compiled cycle.
func (g *Garbler) GarbleCycle(dst []gc.Table) []gc.Table {
	return g.GarbleCycleTrace(&g.S.ct, g.S.cycle, dst)
}

// GarbleCycleTrace is GarbleCycleTraceAppend returning the cycle's tables
// as values, appended to dst in emission (gate) order.
func (g *Garbler) GarbleCycleTrace(ct *CycleTrace, cyc int, dst []gc.Table) []gc.Table {
	g.scratch = g.GarbleCycleTraceAppend(ct, cyc, g.scratch[:0])
	for b := g.scratch; len(b) > 0; b = b[gc.TableBytes:] {
		dst = append(dst, gc.TableFromBytes(b))
	}
	return dst
}

// GarbleCycleTraceAppend is the garbler's gate-execution kernel: it runs
// compiled cycle ct as 1-based cycle cyc, computing the false label of
// every op's output, and appends the cycle's tables to dst in wire form
// and emission (gate) order — what the protocol's frames carry. It never
// consults a scheduler: the op arrays drive the label work directly, so a
// cycle costs its label XORs plus the fixed-key AES of the surviving
// garbled gates. It walks the cycle wave by wave; a wave's garbled ANDs
// are independent, so they go to the hash GarbleBatch at a time
// (gc.GarbleAnds), and each table is written straight to its slot in dst.
func (g *Garbler) GarbleCycleTraceAppend(ct *CycleTrace, cyc int, dst []byte) []byte {
	n := len(dst)
	dst = slices.Grow(dst, ct.NumTables()*gc.TableBytes)[:n+ct.NumTables()*gc.TableBytes]
	tables := dst[n:]
	g.dirty, g.dSrc = ct.dirty, ct.dirtySrc
	base := uint64(cyc-1) * uint64(len(g.c.Gates))
	x0, r := g.x0, g.R
	ci, gi := 0, 0
	for _, seg := range ct.segs {
		for end := ci + int(seg.copies); ci < end; ci++ {
			out := ct.copyOut[ci]
			switch ct.copyAct[ci] {
			case topCopyInv:
				x0[out] = x0[ct.copyA[ci]].Xor(r)
			case topXor:
				x0[out] = x0[ct.copyA[ci]].Xor(x0[ct.copyB[ci]])
			default: // topXorInv
				x0[out] = x0[ct.copyA[ci]].Xor(x0[ct.copyB[ci]]).Xor(r)
			}
		}
		// The wave's ANDs, then its MUXes, one gate at a time.
		end, m := gi+int(seg.garbles), ct.muxes(gi, gi+int(seg.garbles))
		run := ct.ands(gi, m, base)
		gc.GarbleAnds(g.h, r, x0, &run, tables)
		for gi = m; gi < end; gi++ {
			c0, t := gc.GarbleMux(g.h, r, x0[ct.garbS[gi]], x0[ct.garbA[gi]], x0[ct.garbB[gi]], base+uint64(ct.garbGate[gi]))
			x0[ct.garbOut[gi]] = c0
			t.Put(tables[int(ct.garbSlot[gi])*gc.TableBytes:])
		}
	}
	return dst
}

// CopyDFFs performs the end-of-cycle flip-flop label copy for the cycle the
// kernel last ran; call it between cycles, after the kernel. Only the
// cycle's dirty flip-flops move a label — one that holds its value costs
// nothing — so before the first kernel run, and after a final budget
// cycle, it does nothing.
func (g *Garbler) CopyDFFs() {
	g.dffNext = copyDFFs(g.c, g.x0, g.dirty, g.dSrc, g.dffNext[:0])
}

// copyDFFs moves each dirty flip-flop's D label, read from the slot src
// names, to its Q wire, gathering into next before scattering: a D's label
// may live in another flip-flop's Q.
func copyDFFs(c *circuit.Circuit, labels []gc.Label, dirty, src []int32, next []gc.Label) []gc.Label {
	for _, w := range src {
		next = append(next, labels[w])
	}
	for k, i := range dirty {
		labels[c.QWire(int(i))] = next[k]
	}
	return next
}

// DecodeBit returns the point-and-permute decode bit of the label in slot
// w (see X0).
func (g *Garbler) DecodeBit(w circuit.Wire) bool { return g.x0[w].Bit() }

// X0 exposes the false label in slot w (tests and the protocol layer). A
// slot is indexed by wire, but a plain passthrough's label lives in its
// source's slot: resolve a wire first, through Schedule.OutputWires for
// outputs or Scheduler.LabelWire for any wire of the current cycle.
func (g *Garbler) X0(w circuit.Wire) gc.Label { return g.x0[w] }

// Evaluator is Bob's crypto executor, mirroring Garbler with active labels
// and EvalCycleTraceBytes as its one kernel.
type Evaluator struct {
	S *Scheduler

	c       *circuit.Circuit
	h       *gc.Hash
	x       []gc.Label
	dirty   []int32    // dirty flip-flops of the cycle the kernel last ran
	dSrc    []int32    // the slots their D labels live in
	dffNext []gc.Label // CopyDFFs' gather buffer
	scratch []byte     // EvalCycleTrace's table bytes
}

// NewEvaluator creates Bob's executor attached to a scheduler (see
// NewGarbler).
func NewEvaluator(s *Scheduler) *Evaluator {
	s.emit = true
	e := NewReplayEvaluator(s.C)
	e.S = s
	return e
}

// NewReplayEvaluator creates Bob's executor with no scheduler (see
// NewReplayGarbler).
func NewReplayEvaluator(c *circuit.Circuit) *Evaluator {
	return &Evaluator{
		c: c,
		h: gc.NewHash(),
		x: make([]gc.Label, c.NumWires()),
	}
}

// SetInputs installs the labels for Alice's bits (sent directly) and Bob's
// bits (chosen via OT) on every wire they initialize.
func (e *Evaluator) SetInputs(aliceActive, bobChosen []gc.Label) error {
	c := e.c
	if len(aliceActive) != c.AliceBits {
		return fmt.Errorf("core: %d alice labels, want %d", len(aliceActive), c.AliceBits)
	}
	if len(bobChosen) != c.BobBits {
		return fmt.Errorf("core: %d bob labels, want %d", len(bobChosen), c.BobBits)
	}
	forEachSecretInit(c, func(w circuit.Wire, owner circuit.Owner, idx int) {
		if owner == circuit.Alice {
			e.x[w] = aliceActive[idx]
		} else {
			e.x[w] = bobChosen[idx]
		}
	})
	return nil
}

// EvalCycle performs Bob's side of the current classified cycle, mirroring
// Garbler.GarbleCycle.
func (e *Evaluator) EvalCycle(ts []gc.Table) ([]gc.Table, error) {
	return e.EvalCycleTrace(&e.S.ct, e.S.cycle, ts)
}

// EvalCycleTrace is EvalCycleTraceBytes over tables given as values: it
// consumes one table per garbled op from ts, in emission order, and
// returns the unconsumed remainder.
func (e *Evaluator) EvalCycleTrace(ct *CycleTrace, cyc int, ts []gc.Table) ([]gc.Table, error) {
	n := ct.NumTables()
	if len(ts) < n {
		return nil, exhausted(cyc, n, len(ts))
	}
	e.scratch = slices.Grow(e.scratch[:0], n*gc.TableBytes)[:n*gc.TableBytes]
	for i, t := range ts[:n] {
		t.Put(e.scratch[i*gc.TableBytes:])
	}
	if _, err := e.EvalCycleTraceBytes(ct, cyc, e.scratch); err != nil {
		return nil, err
	}
	return ts[n:], nil
}

// EvalCycleTraceBytes is the evaluator's gate-execution kernel: it runs
// compiled cycle ct as 1-based cycle cyc, reading each garbled op's table
// in wire form from its slot in tables, and returns the bytes past the
// cycle's tables. Like the garbler's kernel it walks the cycle wave by
// wave, EvalBatch independent ANDs to a hash pass (gc.EvalAnds); the
// tables are read where the frame holds them, never copied out.
func (e *Evaluator) EvalCycleTraceBytes(ct *CycleTrace, cyc int, tables []byte) ([]byte, error) {
	n := ct.NumTables()
	if len(tables) < n*gc.TableBytes {
		return nil, exhausted(cyc, n, len(tables)/gc.TableBytes)
	}
	rest := tables[n*gc.TableBytes:]
	tables = tables[:n*gc.TableBytes]
	e.dirty, e.dSrc = ct.dirty, ct.dirtySrc
	base := uint64(cyc-1) * uint64(len(e.c.Gates))
	x := e.x
	ci, gi := 0, 0
	for _, seg := range ct.segs {
		for end := ci + int(seg.copies); ci < end; ci++ {
			out := ct.copyOut[ci]
			// The evaluator holds active labels: inversions are the
			// garbler's business, so the three copy codes collapse to two.
			if ct.copyAct[ci] < topXor {
				x[out] = x[ct.copyA[ci]]
			} else {
				x[out] = x[ct.copyA[ci]].Xor(x[ct.copyB[ci]])
			}
		}
		// Complements live entirely on the garbler's side, so every AND
		// form evaluates as a plain half-gates AND.
		end, m := gi+int(seg.garbles), ct.muxes(gi, gi+int(seg.garbles))
		run := ct.ands(gi, m, base)
		gc.EvalAnds(e.h, x, &run, tables)
		for gi = m; gi < end; gi++ {
			t := gc.TableFromBytes(tables[int(ct.garbSlot[gi])*gc.TableBytes:])
			x[ct.garbOut[gi]] = gc.EvalMux(e.h, x[ct.garbS[gi]], x[ct.garbA[gi]], x[ct.garbB[gi]], t, base+uint64(ct.garbGate[gi]))
		}
	}
	return rest, nil
}

// exhausted is the error for a table stream that ends inside cycle cyc.
func exhausted(cyc, need, have int) error {
	return fmt.Errorf("core: table stream exhausted: cycle %d needs %d tables, have %d", cyc, need, have)
}

// CopyDFFs performs the end-of-cycle flip-flop label copy, mirroring
// Garbler.CopyDFFs.
func (e *Evaluator) CopyDFFs() {
	e.dffNext = copyDFFs(e.c, e.x, e.dirty, e.dSrc, e.dffNext[:0])
}

// ActiveBit returns the point-and-permute bit of Bob's active label in slot
// w (see Active).
func (e *Evaluator) ActiveBit(w circuit.Wire) bool { return e.x[w].Bit() }

// Active exposes the active label in slot w, which, as with Garbler.X0, is
// a resolved wire: Schedule.OutputWires or Scheduler.LabelWire.
func (e *Evaluator) Active(w circuit.Wire) gc.Label { return e.x[w] }
