package baseline

import (
	"context"
	"testing"

	"arm2gc/internal/core"
	"arm2gc/internal/cpu"
	"arm2gc/internal/isa"
)

func TestModuleSizesCoverProcessor(t *testing.T) {
	l := isa.Layout{IMemWords: 64, AliceWords: 4, BobWords: 4, OutWords: 4, ScratchWords: 8}
	c, err := cpu.Build(l)
	if err != nil {
		t.Fatal(err)
	}
	sizes := ModuleSizes(c)
	total := 0
	for _, n := range sizes {
		total += n
	}
	if got := c.Circuit.Stats().NonXOR; total != got {
		t.Errorf("module sizes sum to %d, circuit has %d non-XOR gates", total, got)
	}
	for _, mod := range []string{"regfile.read", "alu.adder", "alu.mul", "dmem.read", "writeback"} {
		if sizes[mod] == 0 {
			t.Errorf("module %q has no gates; scope tagging broken?", mod)
		}
	}
}

func TestInstructionLevelCostDominatesSkipGate(t *testing.T) {
	l := isa.Layout{IMemWords: 64, AliceWords: 2, BobWords: 2, OutWords: 2, ScratchWords: 8}
	src := `
gc_main:
	ldr r3, [r0]
	ldr r4, [r1]
	add r5, r3, r4
	mul r6, r3, r4
	str r5, [r2]
	str r6, [r2, #4]
	mov pc, lr
`
	p, err := isa.Link("t", src, l)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cpu.Build(l)
	if err != nil {
		t.Fatal(err)
	}
	cost, cycles, err := Cost(c, p, []uint32{9}, []uint32{11}, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if cycles <= 0 || cost <= 0 {
		t.Fatalf("degenerate baseline: cost %d over %d cycles", cost, cycles)
	}
	pub, err := c.PublicBits(p)
	if err != nil {
		t.Fatal(err)
	}
	st, _, err := core.Count(context.Background(), c.Circuit, pub, core.CountOpts{Cycles: cycles, StopOutput: "halted"})
	if err != nil {
		t.Fatal(err)
	}
	// The instruction-level model charges whole register-file ports and
	// functional units; gate-level SkipGate only pays for the add and the
	// multiply. The paper's gap is 156x on its workload; any factor ≥10
	// confirms the coarse-grain penalty here.
	if cost < 10*int64(st.Total.Garbled) {
		t.Errorf("instruction-level cost %d should dwarf SkipGate's %d", cost, st.Total.Garbled)
	}
}
