package core

import (
	"context"
	"fmt"
	"io"

	"arm2gc/internal/circuit"
	"arm2gc/internal/gc"
	"arm2gc/internal/sim"
)

// RunOpts configures an in-process SkipGate run.
type RunOpts struct {
	Cycles int // number of clock cycles (cc in the paper); required

	// RecordEveryCycle captures the output bus values after every cycle
	// (streaming circuits such as the 1-bit sequential adder); otherwise
	// only the final cycle's outputs are decoded.
	RecordEveryCycle bool

	// StopOutput optionally names a 1-bit output bus: when its value is
	// public and true at the end of a cycle, the run stops early (the
	// garbled processor's halt flag). Cycles still bounds the run.
	StopOutput string

	// Seed is the public fingerprint seed; zero is fine outside the
	// networked protocol.
	Seed Seed

	// Rand supplies label randomness; nil means crypto/rand.
	Rand io.Reader

	// Sink, when set, receives every cycle's scheduling outcome as it is
	// classified — live progress for long runs.
	Sink func(cycle int, cs CycleStats)

	// Trace, when set, replays a recorded classification schedule instead
	// of running the Scheduler: no Classify, just trace-driven label work.
	// The trace must have been recorded for the same circuit, public input
	// and Cycles budget; StopOutput is served from the trace's recorded
	// halt.
	Trace *Trace

	// Record, when set, compiles this run's classification schedule into
	// RunResult.Trace for later replay, drawing the trace's bytes from the
	// budget: once it refuses, the recording is dropped and RunResult.Trace
	// comes back nil, while the run goes on classifying to the same result.
	// Unbounded records without a limit. Mutually exclusive with Trace (a
	// replayed run has no scheduler to record).
	Record RecordBudget
}

// RunResult reports a completed run.
type RunResult struct {
	Outputs  []bool   // all output buses flattened, final cycle
	PerCycle [][]bool // per-cycle outputs when RecordEveryCycle
	Stats    Stats
	Halted   bool   // stopped by StopOutput
	Trace    *Trace // the recorded schedule when RunOpts.Record, unless the budget refused it
}

// RunLocal executes the full two-party SkipGate protocol in process: one
// shared Schedule feeding Alice's Garbler and Bob's Evaluator, with
// oblivious transfer simulated by direct delivery. It verifies that the
// table stream is consumed exactly and decodes the outputs. Cancelling ctx
// aborts the cycle loop with ctx.Err().
func RunLocal(ctx context.Context, c *circuit.Circuit, in sim.Inputs, opts RunOpts) (*RunResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	rnd := opts.Rand
	if rnd == nil {
		rnd = gc.CryptoRand
	}
	if opts.Trace != nil && opts.RecordEveryCycle {
		return nil, fmt.Errorf("core: RunOpts.RecordEveryCycle is not supported under trace replay")
	}
	sc, err := NewSchedule(c, in.Public, opts)
	if err != nil {
		return nil, err
	}
	g, err := ReadReplayGarbler(c, rnd)
	if err != nil {
		return nil, err
	}
	e := NewReplayEvaluator(c)
	if err := deliverInputs(g, e, in); err != nil {
		return nil, err
	}

	res := &RunResult{}
	var tables []gc.Table
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ct := sc.Next()
		tables = g.GarbleCycleTrace(ct, sc.Cycle(), tables[:0])
		rest, err := e.EvalCycleTrace(ct, sc.Cycle(), tables)
		if err != nil {
			return nil, err
		}
		if len(rest) != 0 {
			return nil, fmt.Errorf("core: cycle %d: %d garbled tables unconsumed", sc.Cycle(), len(rest))
		}
		if opts.RecordEveryCycle || sc.Done() {
			if res.Outputs, err = decodeOutputs(sc, g, e); err != nil {
				return nil, err
			}
			if opts.RecordEveryCycle {
				res.PerCycle = append(res.PerCycle, res.Outputs)
			}
		}
		if sc.Done() {
			break
		}
		g.CopyDFFs()
		e.CopyDFFs()
	}
	res.Stats, res.Halted, res.Trace = sc.Stats(), sc.Halted(), sc.Trace()
	return res, nil
}

// deliverInputs plays the input-delivery phase in process: Alice's active
// labels directly, Bob's via simulated oblivious transfer.
func deliverInputs(g *Garbler, e *Evaluator, in sim.Inputs) error {
	pairs := g.BobPairs()
	chosen := make([]gc.Label, len(pairs))
	for i := range pairs {
		if in.Bit(circuit.Bob, i) {
			chosen[i] = pairs[i][1]
		} else {
			chosen[i] = pairs[i][0]
		}
	}
	return e.SetInputs(g.AliceActiveLabels(in.Alice), chosen)
}

// decodeOutputs combines public wire values with point-and-permute
// decoding of secret wires, cross-checking Bob's active label against
// Alice's label pair.
func decodeOutputs(sc *Schedule, g *Garbler, e *Evaluator) ([]bool, error) {
	ws := sc.OutputWires()
	out := make([]bool, len(ws))
	for i, w := range ws {
		if v, pub := sc.OutputState(i); pub {
			out[i] = v
			continue
		}
		// Consistency check available only in-process: the active label
		// must be one of Alice's pair.
		x := e.Active(w)
		if x != g.X0(w) && x != g.X0(w).Xor(g.R) {
			return nil, fmt.Errorf("core: output wire %d: active label matches neither X0 nor X1", w)
		}
		out[i] = e.ActiveBit(w) != g.DecodeBit(w)
	}
	return out, nil
}

// CountOpts configures a schedule-only run.
type CountOpts struct {
	Cycles     int
	StopOutput string
	Seed       Seed

	// Sink, when set, receives every cycle's scheduling outcome.
	Sink func(cycle int, cs CycleStats)
}

// Count runs only the Scheduler — no cryptography, and no cycle is ever
// compiled for an executor — and returns the gate statistics and whether
// StopOutput halted the run within the budget. This is how the benchmark
// harness measures garbled non-XOR counts for large circuits and long
// runs (the counts are exactly those of a full protocol run, since
// scheduling is independent of label values). Cancelling ctx aborts the
// cycle loop with ctx.Err().
func Count(ctx context.Context, c *circuit.Circuit, pub []bool, opts CountOpts) (Stats, bool, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	sc, err := newSchedule(c, pub, RunOpts{Cycles: opts.Cycles, StopOutput: opts.StopOutput,
		Seed: opts.Seed, Sink: opts.Sink}, false)
	if err != nil {
		return Stats{}, false, err
	}
	for !sc.Done() {
		if err := ctx.Err(); err != nil {
			return sc.Stats(), false, err
		}
		sc.Next()
	}
	return sc.Stats(), sc.Halted(), nil
}
