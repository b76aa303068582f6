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
	w := bencher.HammingWorkload(n)
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
				core.RunOpts{Cycles: budget, StopOutput: "halted", RecordEveryCycle: true, Record: core.Unbounded})
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
			replay := core.RunAgainstDenseOracle(t, c.Circuit, in,
				core.RunOpts{Cycles: budget, StopOutput: "halted", Trace: live.Trace})
			if !slices.Equal(replay.Outputs, live.Outputs) || replay.Stats != live.Stats {
				t.Fatalf("replay decodes %v with %+v, live %v with %+v", replay.Outputs, replay.Stats, live.Outputs, live.Stats)
			}
		})
	}
}

// TestCycleStatsInvariance pins that skipping the emission of a copy never
// reaches the paper's categories: the schedule-only Count (no cycle is
// compiled), a live executor run (compiled, copies skipped) and a replay
// of its trace report the same CycleStats for every cycle of the CPU
// Hamming(64) run.
func TestCycleStatsInvariance(t *testing.T) {
	c, _, _, in := hammingOnCPU(t, 64, obliv.Scan)
	const budget = 400
	ctx := context.Background()
	perCycle := func(dst *[]core.CycleStats) func(int, core.CycleStats) {
		return func(_ int, cs core.CycleStats) { *dst = append(*dst, cs) }
	}
	var counted, live, replayed []core.CycleStats
	if _, _, err := core.Count(ctx, c.Circuit, in.Public,
		core.CountOpts{Cycles: budget, StopOutput: "halted", Sink: perCycle(&counted)}); err != nil {
		t.Fatal(err)
	}
	res, err := core.RunLocal(ctx, c.Circuit, in,
		core.RunOpts{Cycles: budget, StopOutput: "halted", Record: core.Unbounded, Sink: perCycle(&live)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.RunLocal(ctx, c.Circuit, in,
		core.RunOpts{Cycles: budget, StopOutput: "halted", Trace: res.Trace, Sink: perCycle(&replayed)}); err != nil {
		t.Fatal(err)
	}
	if len(counted) == 0 || len(live) != len(counted) || len(replayed) != len(counted) {
		t.Fatalf("Count saw %d cycles, live %d, replay %d", len(counted), len(live), len(replayed))
	}
	for cyc, want := range counted {
		if live[cyc] != want || replayed[cyc] != want {
			t.Fatalf("cycle %d: Count %+v, live %+v, replay %+v", cyc+1, want, live[cyc], replayed[cyc])
		}
	}
}

// hamming160 records the Hamming(160) run on the scan processor over its
// 470 cycles, the program whose per-cycle work the counters below pin.
func hamming160(t *testing.T) (*cpu.CPU, sim.Inputs, *core.RunResult) {
	t.Helper()
	c, _, _, in := hammingOnCPU(t, 160, obliv.Scan)
	res, err := core.RunLocal(context.Background(), c.Circuit, in, core.RunOpts{Cycles: 470, Record: core.Unbounded})
	if err != nil {
		t.Fatal(err)
	}
	return c, in, res
}

// TestHammingCycleCounters pins the machine-independent work of a garbled
// processor run: netlist gates classified per cycle, garbled tables,
// flip-flop label commits and executed copies over Hamming(160)'s 470
// cycles (1.021 tables, 6.979 commits and 121.8 copies per cycle). They
// are exact properties of the scheduler and the trace compiler; a change
// that moves one moves the cost of every session.
func TestHammingCycleCounters(t *testing.T) {
	c, _, res := hamming160(t)
	tr := res.Trace
	dffs, copies := 0, 0
	for cyc := 1; cyc <= tr.NumCycles(); cyc++ {
		dffs += tr.Cycle(cyc).NumDFFs()
		copies += tr.Cycle(cyc).NumCopies()
	}
	got := [...]int{len(c.Circuit.Gates), tr.NumCycles(), res.Stats.Total.Garbled, dffs, copies}
	want := [...]int{13_567, 470, 480, 3_280, 57_264}
	if got != want {
		t.Fatalf("gates, cycles, tables, DFF commits, copies = %v, want %v", got, want)
	}
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
	c, in, res := hamming160(t)
	tr := res.Trace
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
