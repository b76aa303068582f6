package cpu

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"arm2gc/internal/circuit"
	"arm2gc/internal/core"
	"arm2gc/internal/emu"
	"arm2gc/internal/isa"
	"arm2gc/internal/sim"
)

// fuzzCPU caches the processor circuit shared by the differential
// harnesses below: the netlist depends only on the layout, so rebuilding
// it per fuzz iteration would waste nearly the whole time budget.
var fuzzCPU = sync.OnceValues(func() (*CPU, error) {
	return Build(isa.Layout{IMemWords: 256, AliceWords: 8, BobWords: 8, OutWords: 13, ScratchWords: 16})
})

// checkCircuitVsEmulator runs one program on the reference emulator and on
// the processor circuit (plaintext simulation) and fails the test on any
// output-region mismatch. It returns the run's inputs and the emulator's
// cycle count and output region for further checks.
func checkCircuitVsEmulator(t *testing.T, c *CPU, prog *isa.Program, alice, bob []uint32) (sim.Inputs, int, []uint32) {
	t.Helper()
	m, err := emu.New(prog, alice, bob)
	if err != nil {
		t.Fatal(err)
	}
	cycles, err := m.Run(10000)
	if err != nil {
		t.Fatalf("emulator: %v\n%s", err, prog.Disassemble())
	}

	pub, err := c.PublicBits(prog)
	if err != nil {
		t.Fatal(err)
	}
	ab, err := c.InputBits(circuit.Alice, alice)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := c.InputBits(circuit.Bob, bob)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(c.Circuit, sim.Inputs{Public: pub, Alice: ab, Bob: bb})
	for i := 0; i < cycles; i++ {
		s.Step()
	}
	outBits, err := s.Output("out")
	if err != nil {
		t.Fatal(err)
	}
	got := OutWords(outBits)
	want := m.Output()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("out[%d] = %#x, emulator %#x\nprogram:\n%s",
				i, got[i], want[i], prog.Disassemble())
		}
	}
	return sim.Inputs{Public: pub, Alice: ab, Bob: bb}, cycles, want
}

// checkReplayVsEmulator compiles the program's trace — so the cross-cycle
// liveness pass runs over it — and replays it through the garbling and
// evaluation kernels (core.RunLocal), failing the test unless the decoded
// output region is the emulator's.
func checkReplayVsEmulator(t *testing.T, c *CPU, prog *isa.Program, in sim.Inputs, cycles int, want []uint32) {
	t.Helper()
	opts := core.CountOpts{Cycles: cycles, StopOutput: "halted"}
	tr, err := core.Compile(context.Background(), c.Circuit, in.Public, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.RunLocal(context.Background(), c.Circuit, in,
		core.RunOpts{Cycles: cycles, StopOutput: "halted", Trace: tr})
	if err != nil {
		t.Fatalf("garbled replay: %v\nprogram:\n%s", err, prog.Disassemble())
	}
	got := OutWords(res.Outputs[:c.Layout.OutWords*32])
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("garbled replay (%d of %d tables dropped across cycles): out[%d] = %#x, emulator %#x\nprogram:\n%s",
				res.Stats.Dropped, res.Stats.Total.Garbled, i, got[i], want[i], prog.Disassemble())
		}
	}
}

// TestRandomInstructionFuzz generates random straight-line programs over
// the full data-processing/multiply/memory instruction set (predicated
// and flag-setting variants included) and checks the processor circuit
// against the emulator register-for-register via a store-out epilogue.
func TestRandomInstructionFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	c, err := fuzzCPU()
	if err != nil {
		t.Fatal(err)
	}

	trials := 20
	if testing.Short() {
		trials = 5
	}
	for trial := 0; trial < trials; trial++ {
		prog := &isa.Program{Words: randomProgram(rng), Layout: c.Layout, Name: "fuzz"}
		alice := make([]uint32, 8)
		bob := make([]uint32, 8)
		for i := range alice {
			alice[i] = rng.Uint32()
			bob[i] = rng.Uint32()
		}
		t.Logf("trial %d", trial)
		checkCircuitVsEmulator(t, c, prog, alice, bob)
	}
}

// FuzzInstructionStream is the native fuzz entry (go test -fuzz). The
// program comes from the seeded generator (arbitrary instruction words
// would rarely assemble into halting programs), while the parties' input
// words are taken directly from the fuzz data so coverage-guided mutation
// meaningfully explores the data-dependent paths: flags, predication,
// register-specified shift amounts, carry chains. The emulator and the
// processor circuit must agree on the stored register file and flag
// observations, in plaintext simulation and in a garbled replay of the
// program's compiled trace: the programs store NZCV to the output region,
// so the liveness pass meets flag trees that are read and ones that die.
func FuzzInstructionStream(f *testing.F) {
	f.Add(int64(4242), []byte{1, 0, 0, 0, 2})
	f.Add(int64(-1), []byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0x80})
	f.Add(int64(31337), append(make([]byte, 32), 0x7f, 0xff, 0x80, 0x01))
	f.Fuzz(func(t *testing.T, seed int64, data []byte) {
		c, err := fuzzCPU()
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		prog := &isa.Program{Words: randomProgram(rng), Layout: c.Layout, Name: "fuzz"}

		// First 32 bytes feed Alice's words, next 32 Bob's; short inputs
		// read as zero.
		at := func(i int) uint32 {
			if i < len(data) {
				return uint32(data[i])
			}
			return 0
		}
		word := func(i int) uint32 {
			return at(4*i) | at(4*i+1)<<8 | at(4*i+2)<<16 | at(4*i+3)<<24
		}
		alice := make([]uint32, 8)
		bob := make([]uint32, 8)
		for i := range alice {
			alice[i] = word(i)
			bob[i] = word(8 + i)
		}
		in, cycles, want := checkCircuitVsEmulator(t, c, prog, alice, bob)
		checkReplayVsEmulator(t, c, prog, in, cycles, want)
	})
}

// randomProgram builds: load 8+8 input words into r3..r10 (xor-combining),
// then ~40 random ALU/predication/memory instructions over r3..r10, then
// stores r3..r10 and NZCV observations to the output region and halts.
func randomProgram(rng *rand.Rand) []uint32 {
	var words []uint32
	emit := func(i isa.Instr) {
		w, err := isa.Encode(i)
		if err != nil {
			panic(err)
		}
		words = append(words, w)
	}
	reg := func() uint8 { return uint8(3 + rng.Intn(8)) } // r3..r10

	// Prologue: r0=alice base (0), r1=bob base (32), r2=out base (64).
	// Addresses are tiny, so plain MOV immediates encode.
	emit(isa.Instr{Kind: isa.KindDP, Cond: isa.AL, Op: isa.OpMOV, Rd: 0, Imm: true, Imm8: 0})
	emit(isa.Instr{Kind: isa.KindDP, Cond: isa.AL, Op: isa.OpMOV, Rd: 1, Imm: true, Imm8: 32})
	emit(isa.Instr{Kind: isa.KindDP, Cond: isa.AL, Op: isa.OpMOV, Rd: 2, Imm: true, Imm8: 64})
	for i := 0; i < 8; i++ {
		emit(isa.Instr{Kind: isa.KindMem, Cond: isa.AL, Load: true, Up: true, Rn: 0, Rd: uint8(3 + i), Off12: uint16(4 * i)})
		emit(isa.Instr{Kind: isa.KindMem, Cond: isa.AL, Load: true, Up: true, Rn: 1, Rd: 11, Off12: uint16(4 * i)})
		emit(isa.Instr{Kind: isa.KindDP, Cond: isa.AL, Op: isa.OpEOR, Rd: uint8(3 + i), Rn: uint8(3 + i), Rm: 11})
	}

	conds := []isa.Cond{isa.AL, isa.AL, isa.AL, isa.EQ, isa.NE, isa.CS, isa.CC, isa.MI, isa.PL,
		isa.HI, isa.LS, isa.GE, isa.LT, isa.GT, isa.LE, isa.VS, isa.VC}
	dpOps := []isa.DPOp{isa.OpAND, isa.OpEOR, isa.OpSUB, isa.OpRSB, isa.OpADD, isa.OpADC,
		isa.OpSBC, isa.OpRSC, isa.OpTST, isa.OpTEQ, isa.OpCMP, isa.OpCMN, isa.OpORR,
		isa.OpMOV, isa.OpBIC, isa.OpMVN}

	n := 30 + rng.Intn(20)
	for i := 0; i < n; i++ {
		switch rng.Intn(10) {
		case 0: // multiply
			ins := isa.Instr{Kind: isa.KindMul, Cond: conds[rng.Intn(len(conds))],
				S: rng.Intn(2) == 1, Rd: reg(), Rm: reg(), Rs: reg()}
			if rng.Intn(2) == 1 {
				ins.Acc = true
				ins.Rn = reg()
			}
			emit(ins)
		case 1: // scratch store+load round trip at a random slot
			slot := uint16(4 * rng.Intn(8))
			r := reg()
			emit(isa.Instr{Kind: isa.KindMem, Cond: isa.AL, Load: false, Up: true, Rn: 2, Rd: r, Off12: slot + 52})
			emit(isa.Instr{Kind: isa.KindMem, Cond: conds[rng.Intn(len(conds))], Load: true, Up: true, Rn: 2, Rd: reg(), Off12: slot + 52})
		default: // data processing
			ins := isa.Instr{Kind: isa.KindDP, Cond: conds[rng.Intn(len(conds))],
				Op: dpOps[rng.Intn(len(dpOps))], S: rng.Intn(2) == 1,
				Rd: reg(), Rn: reg()}
			if rng.Intn(3) == 0 {
				ins.Imm = true
				ins.Imm8 = uint8(rng.Intn(256))
				ins.Rot = uint8(rng.Intn(16))
			} else {
				ins.Rm = reg()
				ins.Sh = isa.Shift(rng.Intn(4))
				if rng.Intn(4) == 0 {
					ins.ShReg = true
					ins.Rs = reg()
				} else {
					ins.ShImm = uint8(rng.Intn(32))
				}
			}
			emit(ins)
		}
	}

	// Epilogue: store r3..r10, then flags via predicated moves, halt.
	for i := 0; i < 8; i++ {
		emit(isa.Instr{Kind: isa.KindMem, Cond: isa.AL, Up: true, Rn: 2, Rd: uint8(3 + i), Off12: uint16(4 * i)})
	}
	flagConds := []isa.Cond{isa.EQ, isa.MI, isa.CS, isa.VS}
	for i, fc := range flagConds {
		emit(isa.Instr{Kind: isa.KindDP, Cond: isa.AL, Op: isa.OpMOV, Rd: 11, Imm: true, Imm8: 0})
		emit(isa.Instr{Kind: isa.KindDP, Cond: fc, Op: isa.OpMOV, Rd: 11, Imm: true, Imm8: 1})
		emit(isa.Instr{Kind: isa.KindMem, Cond: isa.AL, Up: true, Rn: 2, Rd: 11, Off12: uint16(32 + 4*i)})
	}
	emit(isa.Instr{Kind: isa.KindSWI, Cond: isa.AL})
	return words
}
