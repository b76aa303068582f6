package bencher

import (
	"context"
	"fmt"

	"arm2gc/internal/circuit"
	"arm2gc/internal/core"
	"arm2gc/internal/cpu"
	"arm2gc/internal/emu"
	"arm2gc/internal/obliv"
	"arm2gc/internal/sim"
)

// CPUResult is one ARM2GC measurement: a workload executed on the garbled
// processor with SkipGate.
type CPUResult struct {
	Name     string
	Backend  string // resolved data-memory backend the run used
	Cycles   int
	Stats    core.Stats
	PerCycle int // processor non-XOR gates per cycle (conventional cost)
	Warnings []string

	// Conventional is the "w/o SkipGate" cost: cycles × processor non-XOR
	// gates, computed exactly as the paper does for Table 4.
	Conventional int64
}

// Garbled is the headline metric: garbled tables actually transferred.
func (r *CPUResult) Garbled() int { return r.Stats.Tables() }

// RunOnCPU compiles the workload, validates it on the emulator against its
// reference function, builds the processor for its memory layout, and runs
// the SkipGate scheduler to measure garbled-table counts. The data memory
// is the historical linear scan; RunOnCPUMem selects a backend.
func RunOnCPU(w *Workload) (*CPUResult, error) {
	return RunOnCPUMem(w, obliv.Config{Backend: obliv.Scan})
}

// RunOnCPUMem is RunOnCPU with an oblivious-memory backend selection, the
// measurement arm of the backend ablation and the crossover test.
func RunOnCPUMem(w *Workload, mc obliv.Config) (*CPUResult, error) {
	p, warnings, err := w.Program()
	if err != nil {
		return nil, err
	}
	m, err := emu.New(p, w.Alice, w.Bob)
	if err != nil {
		return nil, err
	}
	cycles, err := m.Run(50_000_000)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	if w.Check != nil {
		want := w.Check(w.Alice, w.Bob)
		got := m.Output()
		for i := range want {
			if got[i] != want[i] {
				return nil, fmt.Errorf("%s: emulator output[%d] = %#x, want %#x", w.Name, i, got[i], want[i])
			}
		}
	}

	c, err := cpu.SharedMem(p.Layout, mc)
	if err != nil {
		return nil, err
	}
	pub, err := c.PublicBits(p)
	if err != nil {
		return nil, err
	}
	st, _, err := core.Count(context.Background(), c.Circuit, pub, core.CountOpts{Cycles: cycles, StopOutput: "halted"})
	if err != nil {
		return nil, err
	}
	perCycle := c.Circuit.Stats().NonXOR
	return &CPUResult{
		Name:         w.Name,
		Backend:      c.Backend,
		Cycles:       cycles,
		Stats:        st,
		PerCycle:     perCycle,
		Warnings:     warnings,
		Conventional: int64(cycles) * int64(perCycle),
	}, nil
}

// VerifyOnCPU runs the full garbled protocol (crypto, not just counting)
// in process and checks the decoded outputs against the reference — the
// end-to-end correctness check used by tests and examples.
func VerifyOnCPU(w *Workload) error {
	p, _, err := w.Program()
	if err != nil {
		return err
	}
	m, err := emu.New(p, w.Alice, w.Bob)
	if err != nil {
		return err
	}
	cycles, err := m.Run(50_000_000)
	if err != nil {
		return err
	}
	c, err := cpu.Shared(p.Layout)
	if err != nil {
		return err
	}
	pub, err := c.PublicBits(p)
	if err != nil {
		return err
	}
	ab, err := c.InputBits(circuit.Alice, w.Alice)
	if err != nil {
		return err
	}
	bb, err := c.InputBits(circuit.Bob, w.Bob)
	if err != nil {
		return err
	}
	res, err := core.RunLocal(context.Background(), c.Circuit, simInputs(pub, ab, bb),
		core.RunOpts{Cycles: cycles, StopOutput: "halted"})
	if err != nil {
		return err
	}
	got := cpu.OutWords(res.Outputs[:p.Layout.OutWords*32])
	want := w.Check(w.Alice, w.Bob)
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("%s: garbled output[%d] = %#x, want %#x", w.Name, i, got[i], want[i])
		}
	}
	return nil
}

// AllWorkloads returns the full CPU-path benchmark suite keyed by the
// paper's tables. big selects the largest parameter sets (slow).
func AllWorkloads(big bool) []*Workload {
	ws := []*Workload{
		SumWorkload(32),
		SumWorkload(1024),
		CompareWorkload(32),
		HammingWorkload(32),
		HammingWorkload(160),
		MultWorkload(),
		MatrixMultWorkload(3),
		BubbleSortWorkload(8),
		CordicWorkload(),
		CordicDivWorkload(),
		DijkstraWorkload(8),
		MergeSortWorkload(8),
	}
	if big {
		ws = append(ws,
			CompareWorkload(16384),
			HammingWorkload(512),
			MatrixMultWorkload(5),
			MatrixMultWorkload(8),
			BubbleSortWorkload(32),
			MergeSortWorkload(32),
		)
	}
	return ws
}

// FindWorkload retrieves a workload by name from the full suite.
func FindWorkload(name string) (*Workload, error) {
	for _, w := range AllWorkloads(true) {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("bencher: no workload %q", name)
}

// simInputs assembles the three-vector input of c = f(a, b, p).
func simInputs(pub, a, b []bool) sim.Inputs {
	return sim.Inputs{Public: pub, Alice: a, Bob: b}
}
