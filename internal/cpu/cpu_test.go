package cpu

import (
	"context"
	"testing"

	"arm2gc/internal/circuit"
	"arm2gc/internal/core"
	"arm2gc/internal/emu"
	"arm2gc/internal/isa"
	"arm2gc/internal/sim"
)

func testLayout() isa.Layout {
	return isa.Layout{IMemWords: 64, AliceWords: 8, BobWords: 8, OutWords: 8, ScratchWords: 8}
}

// runBoth executes a program on the emulator and on the processor circuit
// (plaintext simulation) and requires identical outputs and halting.
func runBoth(t *testing.T, src string, alice, bob []uint32) ([]uint32, int) {
	t.Helper()
	l := testLayout()
	p, err := isa.Link("t", src, l)
	if err != nil {
		t.Fatal(err)
	}
	m, err := emu.New(p, alice, bob)
	if err != nil {
		t.Fatal(err)
	}
	cycles, err := m.Run(20000)
	if err != nil {
		t.Fatalf("emulator: %v\n%s", err, p.Disassemble())
	}

	c, err := Build(l)
	if err != nil {
		t.Fatal(err)
	}
	pub, err := c.PublicBits(p)
	if err != nil {
		t.Fatal(err)
	}
	ab, _ := c.InputBits(circuit.Alice, alice)
	bb, _ := c.InputBits(circuit.Bob, bob)
	s := sim.New(c.Circuit, sim.Inputs{Public: pub, Alice: ab, Bob: bb})
	for i := 0; i < cycles; i++ {
		s.Step()
	}
	haltBits, err := s.Output("halted")
	if err != nil {
		t.Fatal(err)
	}
	if !haltBits[0] {
		t.Fatalf("circuit not halted after %d cycles\n%s", cycles, p.Disassemble())
	}
	outBits, err := s.Output("out")
	if err != nil {
		t.Fatal(err)
	}
	got := OutWords(outBits)
	want := m.Output()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("out[%d]: circuit %#x, emulator %#x\n%s", i, got[i], want[i], p.Disassemble())
		}
	}
	return got, cycles
}

func TestCircuitMatchesEmulator(t *testing.T) {
	programs := []struct {
		name       string
		src        string
		alice, bob []uint32
	}{
		{"add", `
gc_main:
	ldr r3, [r0]
	ldr r4, [r1]
	add r3, r3, r4
	str r3, [r2]
	mov pc, lr
`, []uint32{0xffffffff}, []uint32{2}},
		{"predicated-max", `
gc_main:
	ldr r3, [r0]
	ldr r4, [r1]
	cmp r3, r4
	movhi r5, r3
	movls r5, r4
	str r5, [r2]
	mov pc, lr
`, []uint32{123456}, []uint32{77}},
		{"loop-sum", `
gc_main:
	mov r3, #0
	mov r6, #0
loop:
	ldr r4, [r0]
	ldr r5, [r1]
	add r6, r6, r4
	add r6, r6, r5
	add r0, r0, #4
	add r1, r1, #4
	add r3, r3, #1
	cmp r3, #8
	blt loop
	str r6, [r2]
	mov pc, lr
`, []uint32{1, 2, 3, 4, 5, 6, 7, 8}, []uint32{8, 7, 6, 5, 4, 3, 2, 1}},
		{"mul-mla", `
gc_main:
	ldr r3, [r0]
	ldr r4, [r1]
	mul r5, r3, r4
	mla r6, r3, r4, r5
	str r5, [r2]
	str r6, [r2, #4]
	mov pc, lr
`, []uint32{30000}, []uint32{999}},
		{"shifts", `
gc_main:
	ldr r3, [r0]
	ldr r4, [r1]
	mov r5, r3, lsl #4
	str r5, [r2]
	mov r5, r3, lsr r4
	str r5, [r2, #4]
	mov r5, r3, asr #3
	str r5, [r2, #8]
	mov r5, r3, ror #12
	str r5, [r2, #12]
	eor r5, r3, r4, lsl #1
	str r5, [r2, #16]
	mov pc, lr
`, []uint32{0x80001234}, []uint32{5}},
		{"carry-64bit", `
gc_main:
	ldr r3, [r0]
	ldr r4, [r0, #4]
	ldr r5, [r1]
	ldr r6, [r1, #4]
	adds r7, r3, r5
	adc r8, r4, r6
	str r7, [r2]
	str r8, [r2, #4]
	rsb r9, r3, #0
	str r9, [r2, #8]
	sbc r9, r4, r6
	str r9, [r2, #12]
	mov pc, lr
`, []uint32{0xfffffff0, 7}, []uint32{0x30, 9}},
		{"call-stack", `
gc_main:
	str lr, [sp, #-4]
	sub sp, sp, #8
	ldr r3, [r0]
	str r3, [sp]
	bl sq
	ldr r3, [sp]
	str r3, [r2]
	add sp, sp, #8
	ldr lr, [sp, #-4]
	mov pc, lr
sq:
	ldr r4, [sp]
	mul r4, r4, r4
	str r4, [sp]
	mov pc, lr
`, []uint32{11}, nil},
		{"flags-logic", `
gc_main:
	ldr r3, [r0]
	tst r3, #1
	movne r4, #100
	moveq r4, #200
	str r4, [r2]
	teq r3, #0
	movne r5, #1
	moveq r5, #0
	str r5, [r2, #4]
	cmn r3, #1
	moveq r6, #55
	movne r6, #66
	str r6, [r2, #8]
	mov pc, lr
`, []uint32{0xffffffff}, nil},
		{"bic-mvn-orr", `
gc_main:
	ldr r3, [r0]
	ldr r4, [r1]
	bic r5, r3, r4
	str r5, [r2]
	mvn r5, r3
	str r5, [r2, #4]
	orr r5, r3, r4, ror #8
	str r5, [r2, #8]
	and r5, r3, r4
	str r5, [r2, #12]
	mov pc, lr
`, []uint32{0xdeadbeef}, []uint32{0x0000ffff}},
		{"swi-immediate-halt", "gc_main:\n swi 7\n", nil, nil},
	}
	for _, p := range programs {
		p := p
		t.Run(p.name, func(t *testing.T) {
			runBoth(t, p.src, p.alice, p.bob)
		})
	}
}

// TestSkipGateOnCPU is the paper's headline effect: running "add" on the
// garbled processor costs about as much as the bare adder circuit — the
// instruction fetch, decode, register file, and the unused ALU units are
// all skipped because the program is public.
func TestSkipGateOnCPU(t *testing.T) {
	l := testLayout()
	src := `
gc_main:
	ldr r3, [r0]
	ldr r4, [r1]
	add r3, r3, r4
	str r3, [r2]
	swi 0
`
	p, err := isa.Link("add", src, l)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := emu.New(p, []uint32{5}, []uint32{7})
	cycles, err := m.Run(1000)
	if err != nil {
		t.Fatal(err)
	}

	c, err := Build(l)
	if err != nil {
		t.Fatal(err)
	}
	pub, _ := c.PublicBits(p)
	st, _, err := core.Count(context.Background(), c.Circuit, pub, core.CountOpts{Cycles: cycles})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("CPU stats: %+v over %d cycles (circuit: %d non-XOR/cycle)",
		st.Total, cycles, c.Circuit.Stats().NonXOR)
	// One 32-bit add of two secrets: 31-32 garbled tables. Everything else
	// (fetch, decode, control, memories at public addresses) is free.
	if st.Total.Garbled > 40 {
		t.Errorf("garbled %d tables for a single addition; SkipGate is not pruning the processor", st.Total.Garbled)
	}
	if st.Total.Garbled < 31 {
		t.Errorf("garbled only %d tables; the addition itself must cost ≥31", st.Total.Garbled)
	}
}

// TestSkipGateCPUCorrectness runs the full crypto protocol on the
// processor and checks the decoded output.
func TestSkipGateCPUCorrectness(t *testing.T) {
	l := testLayout()
	src := `
gc_main:
	ldr r3, [r0]
	ldr r4, [r1]
	cmp r3, r4
	movhi r5, r3
	movls r5, r4
	str r5, [r2]
	swi 0
`
	p, err := isa.Link("max", src, l)
	if err != nil {
		t.Fatal(err)
	}
	alice, bob := []uint32{1000001}, []uint32{999999}
	m, _ := emu.New(p, alice, bob)
	cycles, err := m.Run(1000)
	if err != nil {
		t.Fatal(err)
	}

	c, err := Build(l)
	if err != nil {
		t.Fatal(err)
	}
	pub, _ := c.PublicBits(p)
	ab, _ := c.InputBits(circuit.Alice, alice)
	bb, _ := c.InputBits(circuit.Bob, bob)
	res, err := core.RunLocal(context.Background(), c.Circuit, sim.Inputs{Public: pub, Alice: ab, Bob: bb},
		core.RunOpts{Cycles: cycles, StopOutput: "halted"})
	if err != nil {
		t.Fatal(err)
	}
	outBits := res.Outputs[:l.OutWords*32]
	got := OutWords(outBits)[0]
	if got != 1000001 {
		t.Errorf("garbled max = %d, want 1000001", got)
	}
	t.Logf("predicated max cost: %d garbled tables over %d cycles", res.Stats.Total.Garbled, res.Stats.Cycles)
}
