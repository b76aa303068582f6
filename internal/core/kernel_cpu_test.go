package core_test

import (
	"context"
	"slices"
	"testing"

	"arm2gc/internal/bencher"
	"arm2gc/internal/circuit"
	"arm2gc/internal/core"
	"arm2gc/internal/cpu"
	"arm2gc/internal/emu"
	"arm2gc/internal/gc"
	"arm2gc/internal/isa"
	"arm2gc/internal/obliv"
	"arm2gc/internal/sim"
)

// hammingOnCPU binds the bencher's Hamming(n) program to its garbled
// processor on the given memory backend. Hamming(64) runs 203 cycles to
// the halt flag, small enough for a unit test.
func hammingOnCPU(t *testing.T, n int, backend string) (*cpu.CPU, *isa.Program, *bencher.Workload, sim.Inputs) {
	t.Helper()
	return workloadOnCPU(t, bencher.HammingWorkload(n), backend)
}

// workloadOnCPU binds a bencher workload's program to its garbled
// processor on the given memory backend ("" picks it by size).
func workloadOnCPU(t testing.TB, w *bencher.Workload, backend string) (*cpu.CPU, *isa.Program, *bencher.Workload, sim.Inputs) {
	t.Helper()
	p, _, err := w.Program()
	if err != nil {
		t.Fatal(err)
	}
	c, err := cpu.SharedMem(p.Layout, obliv.Config{Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	var in sim.Inputs
	if in.Public, err = c.PublicBits(p); err != nil {
		t.Fatal(err)
	}
	if in.Alice, err = c.InputBits(circuit.Alice, w.Alice); err != nil {
		t.Fatal(err)
	}
	if in.Bob, err = c.InputBits(circuit.Bob, w.Bob); err != nil {
		t.Fatal(err)
	}
	return c, p, w, in
}

// TestDenseCommitOracleCPU runs the garbled processor against the dense
// copy-every-flip-flop reference on both memory backends — instruction ROM
// wired D == Q, a register file behind hold-MUXes, a handful of flip-flops
// changing per cycle — decoding the outputs after every cycle and checking
// them against the instruction-level emulator. The scan backend exposes
// the output region live; the square-root ORAM reconciles it at the
// halting cycle, so there only the halt flag is followed cycle by cycle.
func TestDenseCommitOracleCPU(t *testing.T) {
	for _, backend := range []string{obliv.Scan, obliv.SqrtORAM} {
		t.Run(backend, func(t *testing.T) {
			c, p, w, in := hammingOnCPU(t, 64, backend)
			const budget = 400
			live := core.RunAgainstDenseOracle(t, c.Circuit, in,
				core.RunOpts{Cycles: budget, StopOutput: "halted", RecordEveryCycle: true})
			if !live.Halted {
				t.Fatalf("no halt within %d cycles", budget)
			}
			m, err := emu.New(p, w.Alice, w.Bob)
			if err != nil {
				t.Fatal(err)
			}
			for cyc, bits := range live.PerCycle {
				if err := m.Step(); err != nil {
					t.Fatal(err)
				}
				last := cyc == len(live.PerCycle)-1
				if halted := bits[len(bits)-1]; halted != m.Halt || halted != last {
					t.Fatalf("cycle %d: halt flag %v, emulator %v", cyc+1, halted, m.Halt)
				}
				if backend == obliv.Scan || last {
					if got := cpu.OutWords(bits[:len(bits)-1]); !slices.Equal(got, m.Output()) {
						t.Fatalf("cycle %d: output region %v, emulator %v", cyc+1, got, m.Output())
					}
				}
			}
			if want := w.Check(w.Alice, w.Bob); !slices.Equal(m.Output(), want) {
				t.Fatalf("emulator output %v, reference %v", m.Output(), want)
			}
			tr := compile(t, c.Circuit, in.Public, budget)
			replay := core.RunAgainstDenseOracle(t, c.Circuit, in,
				core.RunOpts{Cycles: budget, StopOutput: "halted", Trace: tr})
			want := live.Stats
			want.Dropped = tr.TotalStats().Dropped
			if !slices.Equal(replay.Outputs, live.Outputs) || replay.Stats != want || live.Stats.Dropped != 0 {
				t.Fatalf("replay decodes %v with %+v, live %v with %+v", replay.Outputs, replay.Stats, live.Outputs, live.Stats)
			}
		})
	}
}

// TestCycleStatsInvariance pins that skipping the emission of a copy, or
// dropping ops across cycles, never reaches the paper's categories: a bare
// scheduler (no executor, so no cycle is compiled), a live executor run
// (compiled, copies skipped) and a replay of the pruned trace report the
// same CycleStats for every cycle of the CPU Hamming(64) run.
func TestCycleStatsInvariance(t *testing.T) {
	c, _, _, in := hammingOnCPU(t, 64, obliv.Scan)
	const budget = 400
	ctx := context.Background()
	perCycle := func(dst *[]core.CycleStats) func(int, core.CycleStats) {
		return func(_ int, cs core.CycleStats) { *dst = append(*dst, cs) }
	}
	var counted, live, replayed []core.CycleStats
	s := core.NewScheduler(c.Circuit, core.Seed{}, in.Public)
	halt := c.Circuit.ResolveOutput(c.Circuit.FindOutput("halted").Wires[0])
	for cyc := 1; cyc <= budget; cyc++ {
		counted = append(counted, s.Classify(cyc == budget))
		if v, public := s.WireState(halt); public && v {
			break
		}
		s.Commit()
	}
	if _, err := core.RunLocal(ctx, c.Circuit, in,
		core.RunOpts{Cycles: budget, StopOutput: "halted", Sink: perCycle(&live)}); err != nil {
		t.Fatal(err)
	}
	if _, err := core.RunLocal(ctx, c.Circuit, in, core.RunOpts{Cycles: budget, StopOutput: "halted",
		Trace: compile(t, c.Circuit, in.Public, budget), Sink: perCycle(&replayed)}); err != nil {
		t.Fatal(err)
	}
	if len(counted) == 0 || len(live) != len(counted) || len(replayed) != len(counted) {
		t.Fatalf("the bare scheduler saw %d cycles, live %d, replay %d", len(counted), len(live), len(replayed))
	}
	for cyc, want := range counted {
		if live[cyc] != want || replayed[cyc] != want {
			t.Fatalf("cycle %d: bare scheduler %+v, live %+v, replay %+v", cyc+1, want, live[cyc], replayed[cyc])
		}
	}
}

// hamming160 compiles the Hamming(160) run on the scan processor over its
// 470 cycles, the program whose per-cycle work the counters below pin.
func hamming160(t *testing.T) (*cpu.CPU, sim.Inputs, *core.Trace) {
	t.Helper()
	c, _, _, in := hammingOnCPU(t, 160, obliv.Scan)
	return c, in, compile(t, c.Circuit, in.Public, 470)
}

// compile compiles the trace of c's run under pub within budget cycles,
// stopping at the processor's halt flag.
func compile(tb testing.TB, c *circuit.Circuit, pub []bool, budget int) *core.Trace {
	tb.Helper()
	tr, err := core.Compile(context.Background(), c, pub, core.CountOpts{Cycles: budget, StopOutput: "halted"}, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return tr
}

// TestHammingCycleCounters pins the machine-independent work of a garbled
// processor run: netlist gates classified per cycle, garbled tables on the
// wire, flip-flop label commits and executed copies over Hamming(160)'s
// 470 cycles (0.830 tables, 6.979 commits and 3.321 copies per cycle,
// after the liveness pass dropped 90 tables and 275 copies), and the
// trace's width: the 679 label slots a replaying executor holds, the
// distinct wires its ops and commits name, inputs included, where a
// per-wire array holds one label for each of 19,046 wires. They are exact
// properties of the scheduler and the trace compiler; a change that moves
// one moves the cost of every session. The copies are inverted
// passthroughs and free XORs only: a plain passthrough is compiled to an
// alias, so replaying the trace never executes one.
func TestHammingCycleCounters(t *testing.T) {
	c, _, tr := hamming160(t)
	g := core.NewReplayGarbler(c.Circuit, gc.CryptoRand)
	dffs, copies := 0, 0
	for cyc := 1; cyc <= tr.NumCycles(); cyc++ {
		ct := tr.Cycle(cyc)
		dffs += ct.NumDFFs()
		copies += ct.NumCopies()
		g.GarbleCycleTrace(ct, cyc, nil)
		if n := core.PlainCopies(g, ct); n != 0 {
			t.Fatalf("cycle %d executes %d plain copies", cyc, n)
		}
		g.CopyDFFs()
	}
	got := [...]int{len(c.Circuit.Gates), tr.NumCycles(), tr.TotalStats().Tables(), dffs, copies, tr.Width()}
	want := [...]int{13_567, 470, 390, 3_280, 1_561, 679}
	if got != want {
		t.Fatalf("gates, cycles, tables, DFF commits, copies, label slots = %v, want %v", got, want)
	}
}

// TestHammingWaves: every compiled cycle of Hamming(160)'s trace is in
// wave form (core.CheckWaves) — on the processor's netlist, register file
// and memory included, not only on random circuits.
func TestHammingWaves(t *testing.T) {
	_, _, tr := hamming160(t)
	split := 0
	for cyc := 1; cyc <= tr.NumCycles(); cyc++ {
		ct := tr.Cycle(cyc)
		if err := core.CheckWaves(ct); err != nil {
			t.Fatalf("cycle %d: %v", cyc, err)
		}
		if core.NumWaves(ct) > 1 {
			split++
		}
	}
	if split == 0 {
		t.Fatal("no cycle runs in more than one wave")
	}
	t.Logf("%d of %d cycles run in more than one wave", split, tr.NumCycles())
}

// TestHammingClassifyShapes pins the measurement that decided against
// making Classify itself cheaper, on Hamming(160)'s 470 cycles: 58.5 % of
// gate visits have a changed input, every cycle starts from a distinct
// flip-flop state vector, and 420 distinct action vectors cover the 470
// cycles. A dirty-gate worklist pays only below ≈ 30 % dirty visits, and
// a memo of classified cycles only when shapes are far fewer than cycles
// (Hamming(512) reads the same: 59.0 % dirty, 1,313 action vectors over
// 1,449 cycles), so classification runs once per program instead and
// every later session replays its trace.
func TestHammingClassifyShapes(t *testing.T) {
	c, _, _, in := hammingOnCPU(t, 160, obliv.Scan)
	visits, dirty, dffStates, actions := core.ClassifyShapes(c.Circuit, in.Public, 470)
	got := [...]int{visits, dirty, dffStates, actions}
	want := [...]int{470 * 13_567, 3_731_716, 470, 420}
	if got != want {
		t.Fatalf("gate visits, input-dirty visits, flip-flop state vectors, action vectors = %v, want %v", got, want)
	}
}

// TestKernelsDoNotAllocate pins the per-cycle hot loops at zero heap
// allocations once their buffers are warm: the scheduler's Classify and
// Commit, the replay garbler's GarbleCycleTrace and CopyDFFs, and the
// evaluator's EvalCycleTrace and CopyDFFs over the whole Hamming(160)
// trace.
func TestKernelsDoNotAllocate(t *testing.T) {
	c, in, tr := hamming160(t)
	n := tr.NumCycles()

	s := core.NewScheduler(c.Circuit, core.Seed{}, in.Public)
	if a := testing.AllocsPerRun(50, func() { s.Classify(false); s.Commit() }); a != 0 {
		t.Errorf("Classify+Commit: %v allocations per cycle", a)
	}

	g := core.NewReplayGarbler(c.Circuit, gc.CryptoRand)
	tables := make([][]gc.Table, n+1)
	for cyc := 1; cyc <= n; cyc++ {
		tables[cyc] = g.GarbleCycleTrace(tr.Cycle(cyc), cyc, nil)
		g.CopyDFFs()
	}
	var buf []gc.Table
	garble := func() {
		for cyc := 1; cyc <= n; cyc++ {
			buf = g.GarbleCycleTrace(tr.Cycle(cyc), cyc, buf[:0])
			g.CopyDFFs()
		}
	}
	if a := testing.AllocsPerRun(3, garble); a != 0 {
		t.Errorf("replay GarbleCycleTrace+CopyDFFs: %v allocations per run", a)
	}

	e := core.NewReplayEvaluator(c.Circuit)
	pairs := g.BobPairs()
	chosen := make([]gc.Label, len(pairs))
	for i := range pairs {
		chosen[i] = pairs[i][0]
	}
	if err := e.SetInputs(g.AliceActiveLabels(nil), chosen); err != nil {
		t.Fatal(err)
	}
	var evalErr error
	eval := func() {
		for cyc := 1; cyc <= n; cyc++ {
			if _, err := e.EvalCycleTrace(tr.Cycle(cyc), cyc, tables[cyc]); err != nil {
				evalErr = err
			}
			e.CopyDFFs()
		}
	}
	if a := testing.AllocsPerRun(3, eval); a != 0 {
		t.Errorf("EvalCycleTrace+CopyDFFs: %v allocations per run", a)
	}
	if evalErr != nil {
		t.Fatal(evalErr)
	}
}

// BenchmarkReplayKernels times the two replay kernels over the recorded
// trace of matmul5 (5×5 matrix product, 5,133 cycles, 127,225 tables,
// all but 3,100 of them in 125 multiply cycles of AND depth 31): "garble"
// is GarbleCycleTraceAppend writing every cycle's tables into a frame
// buffer, "eval" is EvalCycleTraceBytes reading them from it, each with
// CopyDFFs between cycles, as a replayed session runs them. One op is the
// whole trace. The trace is recorded once, outside the timer.
//
//	go test -run '^$' -bench ReplayKernels -benchtime 20x ./internal/core
func BenchmarkReplayKernels(b *testing.B) {
	c, _, _, in := workloadOnCPU(b, bencher.MatrixMultWorkload(5), "")
	tr := compile(b, c.Circuit, in.Public, 20_000)
	n := tr.NumCycles()
	if garbled := tr.TotalStats().Total.Garbled; n != 5_133 || garbled != 127_225 {
		b.Fatalf("matmul5 ran %d cycles and %d tables, want 5133 and 127225", n, garbled)
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
	frames := make([][]byte, n+1)
	for cyc := 1; cyc <= n; cyc++ {
		frames[cyc] = g.GarbleCycleTraceAppend(tr.Cycle(cyc), cyc, nil)
		g.CopyDFFs()
	}
	b.Run("garble", func(b *testing.B) {
		var frame []byte
		for range b.N {
			for cyc := 1; cyc <= n; cyc++ {
				frame = g.GarbleCycleTraceAppend(tr.Cycle(cyc), cyc, frame[:0])
				g.CopyDFFs()
			}
		}
	})
	b.Run("eval", func(b *testing.B) {
		for range b.N {
			for cyc := 1; cyc <= n; cyc++ {
				if _, err := e.EvalCycleTraceBytes(tr.Cycle(cyc), cyc, frames[cyc]); err != nil {
					b.Fatal(err)
				}
				e.CopyDFFs()
			}
		}
	})
}
