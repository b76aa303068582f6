package core

import (
	"context"
	"errors"
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

	// Trace, when set, replays a compiled classification schedule instead
	// of running the Scheduler: no Classify, just trace-driven label work.
	// The trace must have been compiled (Compile) for the same circuit,
	// public input and Cycles budget; StopOutput is served from the
	// trace's recorded halt.
	Trace *Trace
}

// RunResult reports a completed run.
type RunResult struct {
	Outputs  []bool   // all output buses flattened, final cycle
	PerCycle [][]bool // per-cycle outputs when RecordEveryCycle
	Stats    Stats
	Halted   bool // stopped by StopOutput
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
	if opts.Trace != nil {
		g.Reserve(opts.Trace.Width())
		e.Reserve(opts.Trace.Width())
	}
	if err := deliverInputs(g, e, in); err != nil {
		return nil, err
	}

	res := &RunResult{}
	var tables []byte
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ct := sc.Next()
		tables = g.GarbleCycleTraceAppend(ct, sc.Cycle(), tables[:0])
		rest, err := e.EvalCycleTraceBytes(ct, sc.Cycle(), tables)
		if err != nil {
			return nil, err
		}
		if len(rest) != 0 {
			return nil, fmt.Errorf("core: cycle %d: %d garbled table bytes unconsumed", sc.Cycle(), len(rest))
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
	res.Stats, res.Halted = sc.Stats(), sc.Halted()
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
	slots := sc.OutputSlots()
	out := make([]bool, len(slots))
	for i, w := range slots {
		if v, pub := sc.OutputState(i); pub {
			out[i] = v
			continue
		}
		// Consistency check available only in-process: the active label
		// must be one of Alice's pair.
		x := e.Active(w)
		if x != g.X0(w) && x != g.X0(w).Xor(g.R) {
			return nil, fmt.Errorf("core: output %d (slot %d): active label matches neither X0 nor X1", i, w)
		}
		out[i] = e.ActiveBit(w) != g.DecodeBit(w)
	}
	return out, nil
}

// CountOpts configures Count and Compile.
type CountOpts struct {
	Cycles     int
	StopOutput string
	Seed       Seed

	// Sink, when set, receives every cycle's scheduling outcome.
	Sink func(cycle int, cs CycleStats)
}

// Count returns the gate statistics of c's run under public input pub and
// whether StopOutput halted it within the budget, with no cryptography:
// it compiles the run (Compile, unbounded) for the cross-cycle pass and
// keeps only the trace's totals. This is how the benchmark harness
// measures garbled-table counts for large circuits and long runs (the
// counts are exactly those of a full protocol run over the compiled
// trace, since scheduling is independent of label values); Stats.Tables
// is what the wire carries. Cancelling ctx aborts the cycle loop with
// ctx.Err().
func Count(ctx context.Context, c *circuit.Circuit, pub []bool, opts CountOpts) (Stats, bool, error) {
	t, err := Compile(ctx, c, pub, opts, nil)
	if err != nil {
		return Stats{}, false, err
	}
	return t.TotalStats(), t.Halted(), nil
}

// ErrTraceBudget is what Compile returns when its RecordBudget refuses a
// byte: the program's trace does not fit, and no networked session of it
// runs under that budget.
var ErrTraceBudget = errors.New("core: compiled trace outgrew its budget")

// Compile runs the Scheduler and a TraceRecorder over the whole run of c
// under public input pub, with no executor and no label — the schedule
// is a pure function of public data — then the cross-cycle liveness pass
// (prune.go) over the finished recording, and returns the compiled Trace
// that RunOpts.Trace and proto.Config.Trace replay. Of opts it reads Cycles,
// StopOutput and Seed; a Sink sees every cycle as it is compiled. The
// recorder draws every byte it keeps from budget (nil: unbounded) and
// Compile stops with ErrTraceBudget at the first refusal, having held at
// most what the budget granted plus the refused cycle. Cancelling ctx
// aborts between cycles with ctx.Err().
func Compile(ctx context.Context, c *circuit.Circuit, pub []bool, opts CountOpts, budget RecordBudget) (*Trace, error) {
	t, err := record(ctx, c, pub, opts, budget)
	if err != nil {
		return nil, err
	}
	t.prune()
	return t, nil
}

// record is Compile without the liveness pass: the finished recording.
func record(ctx context.Context, c *circuit.Circuit, pub []bool, opts CountOpts, budget RecordBudget) (*Trace, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	sc, err := NewSchedule(c, pub, RunOpts{Cycles: opts.Cycles, StopOutput: opts.StopOutput,
		Seed: opts.Seed, Sink: opts.Sink})
	if err != nil {
		return nil, err
	}
	rec := NewTraceRecorder(sc.s)
	rec.budget = budget
	for !sc.Done() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ct := sc.Next()
		rec.RecordCycle(ct.Stats, ct.Halted)
		if rec.t == nil {
			return nil, ErrTraceBudget
		}
	}
	if t := rec.Finish(sc.Halted()); t != nil {
		return t, nil
	}
	return nil, ErrTraceBudget
}
