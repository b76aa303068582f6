package core

import (
	"fmt"

	"arm2gc/internal/circuit"
)

// Schedule is the one source of compiled cycles a run's executors consume:
// Next classifies the next cycle on a live Scheduler, or steps through a
// recorded Trace — the cycle loops above it cannot tell which. The halt
// verdict, the accumulated statistics and the final output-wire states are
// read from here in both cases.
type Schedule struct {
	s      *Scheduler     // nil when replaying
	tr     *Trace         // nil when classifying
	rec    *TraceRecorder // non-nil when recording
	budget int
	stop   circuit.Wire // resolved halt-flag wire, or -1
	sink   func(cycle int, cs CycleStats)
	outW   []circuit.Wire // resolved output wires, circuit.OutputWires order
	outL   []circuit.Wire // their label slots, as OutputWires last returned

	cyc    int
	halted bool
	stats  Stats
}

// NewSchedule prepares a run of c under public input pub for executors:
// every classified cycle is compiled for the kernels. Of o it reads the
// run's public shape — Cycles, StopOutput, Seed, Sink, Trace, Record; Rand
// and RecordEveryCycle are the executors' business.
func NewSchedule(c *circuit.Circuit, pub []bool, o RunOpts) (*Schedule, error) {
	return newSchedule(c, pub, o, true)
}

func newSchedule(c *circuit.Circuit, pub []bool, o RunOpts, emit bool) (*Schedule, error) {
	if o.Cycles <= 0 {
		return nil, fmt.Errorf("core: RunOpts.Cycles = %d", o.Cycles)
	}
	sc := &Schedule{budget: o.Cycles, stop: -1, sink: o.Sink, tr: o.Trace}
	// Outputs are sampled after the flip-flop copy; Q-wire outputs resolve
	// to their D wires so they can be read before Commit.
	for _, w := range c.OutputWires() {
		sc.outW = append(sc.outW, c.ResolveOutput(w))
	}
	if o.Trace != nil {
		if o.Record != nil {
			return nil, fmt.Errorf("core: Record with Trace: a replayed run has no scheduler to record")
		}
		if err := o.Trace.Validate(o.Cycles); err != nil {
			return nil, err
		}
		if len(o.Trace.outPub) != len(sc.outW) {
			return nil, fmt.Errorf("core: trace records %d output bits, circuit has %d", len(o.Trace.outPub), len(sc.outW))
		}
		sc.budget = o.Trace.NumCycles()
		return sc, nil
	}
	if o.StopOutput != "" {
		stop := c.FindOutput(o.StopOutput)
		if stop == nil {
			return nil, fmt.Errorf("core: no output %q", o.StopOutput)
		}
		sc.stop = c.ResolveOutput(stop.Wires[0])
	}
	sc.s = NewScheduler(c, o.Seed, pub)
	sc.s.emit = emit
	if o.Record != nil {
		sc.rec = NewTraceRecorder(sc.s)
		sc.rec.budget = o.Record
	}
	return sc, nil
}

// Done reports whether the cycle Next returned last is the run's final one:
// the halt flag fired, or the budget is spent.
func (sc *Schedule) Done() bool { return sc.halted || sc.cyc == sc.budget }

// Next produces the next cycle's compiled schedule; it must not be called
// once Done. The returned trace is valid until the following Next.
func (sc *Schedule) Next() *CycleTrace {
	var ct *CycleTrace
	if sc.tr != nil {
		sc.cyc++
		ct = sc.tr.Cycle(sc.cyc)
	} else {
		if sc.cyc > 0 {
			sc.s.Commit()
		}
		sc.cyc++
		cs := sc.s.Classify(sc.cyc == sc.budget)
		ct = &sc.s.ct
		// The halt verdict is schedule-only (a public wire state), so it
		// is known right after Classify.
		if sc.stop >= 0 {
			v, pub := sc.s.WireState(sc.stop)
			ct.Halted = pub && v
		}
		if sc.rec != nil {
			sc.rec.RecordCycle(cs, ct.Halted)
		}
	}
	sc.halted = ct.Halted
	sc.stats.Cycles++
	sc.stats.Total.Add(ct.Stats)
	if sc.sink != nil {
		sc.sink(sc.cyc, ct.Stats)
	}
	return ct
}

// Cycle returns the 1-based index of the cycle Next returned last.
func (sc *Schedule) Cycle() int { return sc.cyc }

// Halted reports whether the run stopped at the public halt flag.
func (sc *Schedule) Halted() bool { return sc.halted }

// Stats returns the statistics accumulated over the cycles produced so far.
func (sc *Schedule) Stats() Stats { return sc.stats }

// OutputWires returns, for every flattened output bit, the slot its label
// lives in — the wire to hand Garbler.X0 or Evaluator.Active — as of the
// cycle Next returned last (a replayed run knows only the final cycle's,
// so call it once the run is done). Plain passthroughs are compiled to
// aliases, so a slot may be an upstream wire or a flip-flop output: its
// label is the cycle's output from the kernel run until CopyDFFs. Only
// secret outputs' slots are meaningful.
func (sc *Schedule) OutputWires() []circuit.Wire {
	if sc.tr != nil {
		return sc.tr.outSrc
	}
	sc.outL = sc.outL[:0]
	for _, w := range sc.outW {
		sc.outL = append(sc.outL, sc.s.LabelWire(w))
	}
	return sc.outL
}

// OutputState returns output bit i's wire state as of the cycle Next
// returned last (a replayed run knows only the final cycle's): val is
// meaningful only when public is true; secret outputs decode from labels.
func (sc *Schedule) OutputState(i int) (val bool, public bool) {
	if sc.tr != nil {
		return sc.tr.outVal[i], sc.tr.outPub[i]
	}
	return sc.s.WireState(sc.outW[i])
}

// Trace returns the recorded run when RunOpts.Record was set and its
// budget granted every byte, nil otherwise; call it once, when Done.
func (sc *Schedule) Trace() *Trace {
	if sc.rec == nil {
		return nil
	}
	return sc.rec.Finish(sc.halted)
}
