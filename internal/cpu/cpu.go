// Package cpu generates the garbled processor netlist: an ARM-style 32-bit
// single-cycle core implementing the isa package spec, built from MUXes
// and flip-flops exactly as the paper describes — five memory elements
// (instructions, Alice's inputs, Bob's inputs, outputs, stack/scratch; the
// four data regions share one word-addressed RAM), a 15×32 register file
// with the PC read as r15 = PC+8, full conditional execution, a barrel
// shifter, the 16 data-processing operations, MUL/MLA, and LDR/STR.
//
// Following Section 4.2, there is no pipeline, cache, or interrupt logic:
// those structures cannot help a garbled execution, where cost is the
// number of garbled non-XOR gates, not critical-path latency. Every module
// is tagged with a builder scope so the instruction-level-pruning baseline
// (package baseline) can charge whole modules the way garbled MIPS does.
package cpu

import (
	"fmt"

	"arm2gc/internal/build"
	"arm2gc/internal/circuit"
	"arm2gc/internal/isa"
	"arm2gc/internal/obliv"
	"arm2gc/internal/sim"
)

// CPU is a frozen processor instance for one memory layout and one
// resolved data-memory backend.
type CPU struct {
	Circuit *circuit.Circuit
	Layout  isa.Layout

	// Backend is the resolved obliv backend name the data memory was
	// built with (obliv.Scan or obliv.SqrtORAM, never obliv.Auto).
	Backend string
}

// Build generates the processor circuit for a memory layout with the
// linear-scan data memory — the historical netlist, bit-for-bit. New code
// that wants backend selection should use BuildMem.
func Build(l isa.Layout) (*CPU, error) {
	return BuildMem(l, obliv.Config{Backend: obliv.Scan})
}

// BuildMem generates the processor circuit for a memory layout with the
// data-memory backend chosen by mc (obliv.Auto resolves against the
// layout's DataWords()).
func BuildMem(l isa.Layout, mc obliv.Config) (*CPU, error) {
	if err := l.Validate(); err != nil {
		return nil, err
	}
	if l.IMemWords&(l.IMemWords-1) != 0 {
		return nil, fmt.Errorf("cpu: IMemWords %d must be a power of two", l.IMemWords)
	}
	// The data-memory word count gets the same up-front validation as
	// IMemWords: both the scan and the ORAM bank synthesize netlists
	// linear in it, so a corrupt layout must fail here with a clear
	// error, not deep inside the builder.
	if dw := l.DataWords(); dw <= 0 || dw > obliv.MaxDataWords {
		return nil, fmt.Errorf("cpu: data memory of %d words is outside the buildable range [1, %d]",
			dw, obliv.MaxDataWords)
	}
	backend, err := mc.Resolve(l.DataWords())
	if err != nil {
		return nil, err
	}

	b := build.New(fmt.Sprintf("arm2gc-cpu-i%d-d%d-%s", l.IMemWords, l.DataWords(), backend))

	// Input bit-vector reservations: the program image is the public input
	// p; the parties' arrays initialize their data-memory regions.
	pubOff := b.AllocInputBits(circuit.Public, l.IMemWords*32)
	aliceOff := b.AllocInputBits(circuit.Alice, l.AliceWords*32)
	bobOff := b.AllocInputBits(circuit.Bob, l.BobWords*32)

	// Architectural state.
	pcReg := b.Reg("pc", 32)
	pc := pcReg.Q()
	regs := make([]*build.Reg, 15)
	for i := range regs {
		regs[i] = b.Reg(fmt.Sprintf("r%d", i), 32)
	}
	flagN := b.Reg("N", 1)
	flagZ := b.Reg("Z", 1)
	flagC := b.Reg("C", 1)
	flagV := b.Reg("V", 1)
	haltedReg := b.Reg("halted", 1)
	halted := haltedReg.Q()[0]
	running := b.Not(halted)

	// Instruction memory: public flip-flops holding the program p.
	closeScope := b.Scope("imem")
	imem := make([]build.Bus, l.IMemWords)
	for w := range imem {
		inits := make([]circuit.Init, 32)
		for bit := range inits {
			inits[bit] = circuit.Init{Kind: circuit.InitPublic, Idx: pubOff + w*32 + bit}
		}
		r := b.RegInit(fmt.Sprintf("imem%d", w), inits)
		r.SetNext(r.Q()) // ROM: holds forever
		imem[w] = r.Q()
	}
	closeScope()

	// Data memory: one RAM behind the selected oblivious backend; regions
	// set initialization.
	closeScope = b.Scope("dmem")
	mem, err := obliv.Instantiate(b, backend, l, aliceOff, bobOff)
	if err != nil {
		return nil, err
	}
	closeScope()

	// Fetch.
	closeScope = b.Scope("fetch")
	ibits := log2(l.IMemWords)
	instr := b.MuxTree(pc[2:2+ibits], imem)
	pcPlus4 := b.Add(pc, build.ConstBus(4, 32))
	pcPlus8 := b.Add(pc, build.ConstBus(8, 32))
	closeScope()

	// Decode (all public when the PC is public).
	closeScope = b.Scope("decode")
	is1001 := b.AndTree([]build.W{instr[4], b.Not(instr[5]), b.Not(instr[6]), instr[7]})
	mulHigh := b.Nor(b.OrTree(instr[22:28]), b.Not(is1001))
	isMul := mulHigh
	isDP := b.And(b.Nor(instr[26], instr[27]), b.Not(isMul))
	isMem := b.And(instr[26], b.Not(instr[27]))
	isBranch := b.AndTree([]build.W{instr[27], b.Not(instr[26]), instr[25]})
	isSWI := b.AndTree([]build.W{instr[27], instr[26], instr[25], instr[24]})
	opcode := instr[21:25]
	sBit := instr[20]
	closeScope()

	// Condition evaluation.
	closeScope = b.Scope("cond")
	n, z := flagN.Q()[0], flagZ.Q()[0]
	cf, v := flagC.Q()[0], flagV.Q()[0]
	geSig := b.Xnor(n, v)
	conds := []build.Bus{
		{z}, {b.Not(z)}, {cf}, {b.Not(cf)},
		{n}, {b.Not(n)}, {v}, {b.Not(v)},
		{b.And(cf, b.Not(z))}, {b.Or(b.Not(cf), z)},
		{geSig}, {b.Not(geSig)},
		{b.And(b.Not(z), geSig)}, {b.Or(z, b.Not(geSig))},
		{build.T}, {build.T},
	}
	condPass := b.MuxTree(instr[28:32], conds)[0]
	closeScope()

	// Register file reads (r15 reads as PC+8).
	closeScope = b.Scope("regfile.read")
	items := make([]build.Bus, 16)
	for i := 0; i < 15; i++ {
		items[i] = regs[i].Q()
	}
	items[15] = pcPlus8
	rnVal := b.MuxTree(instr[16:20], items)
	rdVal := b.MuxTree(instr[12:16], items) // store data / MLA accumulator
	rmVal := b.MuxTree(instr[0:4], items)
	rsVal := b.MuxTree(instr[8:12], items)
	closeScope()

	// Operand 2: rotated immediate or shifted register.
	closeScope = b.Scope("shifter")
	immRot := build.Bus{build.F, instr[8], instr[9], instr[10], instr[11]}
	immVal := b.RorVar(build.ZeroExtend(instr[0:8], 32), immRot)
	shAmt := b.MuxBus(instr[4], rsVal[0:6], build.ZeroExtend(instr[7:12], 6))
	lslV := b.ShlVar(rmVal, shAmt)
	lsrV := b.ShrVar(rmVal, shAmt, false)
	asrV := b.ShrVar(rmVal, shAmt, true)
	rorV := b.RorVar(rmVal, shAmt)
	shifted := b.MuxTree(instr[5:7], []build.Bus{lslV, lsrV, asrV, rorV})
	op2 := b.MuxBus(instr[25], immVal, shifted)
	closeScope()

	// ALU adder path: covers ADD/ADC/SUB/SBC/RSB/RSC/CMP/CMN.
	closeScope = b.Scope("alu.adder")
	// RSB (0011) and RSC (0111) swap the adder operands.
	isRsbLike := b.AndTree([]build.W{opcode[0], opcode[1], b.Not(opcode[3])})
	x := b.MuxBus(isRsbLike, op2, rnVal)
	y := b.MuxBus(isRsbLike, rnVal, op2)
	// Control tables indexed by opcode (AND EOR SUB RSB ADD ADC SBC RSC
	// TST TEQ CMP CMN ORR MOV BIC MVN).
	invY := muxtreeBits(b, opcode, "0011001100100000")   // subtracting ops invert y
	cinC := muxtreeBits(b, opcode, "0000011100000000")   // ADC/SBC/RSC: carry-in = C
	cinOne := muxtreeBits(b, opcode, "0011000000100000") // SUB/RSB/CMP: carry-in = 1
	cin := b.Or(b.And(cinC, cf), cinOne)
	yEff := make(build.Bus, 32)
	for i := range yEff {
		yEff[i] = b.Xor(y[i], invY)
	}
	sum, cout := b.AddCarry(x, yEff, cin)
	ovf := b.And(b.Xnor(x[31], yEff[31]), b.Xor(sum[31], x[31]))
	closeScope()

	// ALU logical path.
	closeScope = b.Scope("alu.logic")
	andV := b.AndBus(rnVal, op2)
	eorV := b.XorBus(rnVal, op2)
	orrV := b.OrBus(rnVal, op2)
	bicV := b.AndBus(rnVal, b.NotBus(op2))
	movV := op2
	mvnV := b.NotBus(op2)
	closeScope()

	// Multiplier (truncated 32×32→32, plus MLA accumulate).
	closeScope = b.Scope("alu.mul")
	mulV := b.MulLow(rmVal, rsVal)
	mlaV := b.Add(mulV, rdVal)
	mulOut := b.MuxBus(instr[21], mlaV, mulV)
	closeScope()

	// Data-processing result mux (public opcode releases the idle units).
	closeScope = b.Scope("alu.select")
	dpResult := b.MuxTree(opcode, []build.Bus{
		andV, eorV, sum, sum, sum, sum, sum, sum,
		andV, eorV, sum, sum, orrV, movV, bicV, mvnV,
	})
	closeScope()

	// Memory access.
	closeScope = b.Scope("dmem.agu")
	off32 := build.ZeroExtend(instr[0:12], 32)
	invU := b.Not(instr[23])
	offEff := make(build.Bus, 32)
	for i := range offEff {
		offEff[i] = b.Xor(off32[i], invU)
	}
	memAddr, _ := b.AddCarry(rnVal, offEff, invU)
	dbits := log2ceil(l.DataWords())
	wordAddr := memAddr[2 : 2+dbits]
	closeScope()

	closeScope = b.Scope("dmem.read")
	memRead := mem.Read(wordAddr)
	closeScope()

	// Writeback value and destination.
	closeScope = b.Scope("writeback")
	isLoad := b.And(isMem, instr[20])
	wbData := b.MuxBus(isLoad, memRead, b.MuxBus(isMul, mulOut, dpResult))
	// TST/TEQ/CMP/CMN (10xx) do not write.
	dpWrites := b.And(isDP, b.Nand(opcode[3], b.Not(opcode[2])))
	writesRd := b.OrTree([]build.W{dpWrites, isMul, isLoad})
	wbEn := b.AndTree([]build.W{writesRd, condPass, running})
	rdSel := b.MuxBus(isMul, instr[16:20], instr[12:16])
	rdOnehot := b.Decoder(rdSel, wbEn)

	blEn := b.AndTree([]build.W{isBranch, instr[24], condPass, running})
	for i := 0; i < 15; i++ {
		next := b.MuxBus(rdOnehot[i], wbData, regs[i].Q())
		if i == 14 {
			next = b.MuxBus(blEn, pcPlus4, next)
		}
		regs[i].SetNext(next)
	}
	closeScope()

	// Flags.
	// TST/TEQ/CMP/CMN (opcodes 10xx) are compare-only: they set flags
	// whether or not S is encoded, matching the emulator's semantics.
	closeScope = b.Scope("flags")
	flagSrc := b.MuxBus(isMul, mulOut, dpResult)
	isTstClass := b.And(opcode[3], b.Not(opcode[2]))
	effS := b.Or(sBit, b.And(isDP, isTstClass))
	setNZ := b.AndTree([]build.W{b.Or(isDP, isMul), effS, condPass, running})
	newZ := b.EqZero(flagSrc)
	arith := muxtreeBits(b, opcode, "0011111100110000")
	setCV := b.AndTree([]build.W{isDP, arith, effS, condPass, running})
	flagN.SetNext(build.Bus{b.Mux(setNZ, flagSrc[31], n)})
	flagZ.SetNext(build.Bus{b.Mux(setNZ, newZ, z)})
	flagC.SetNext(build.Bus{b.Mux(setCV, cout, cf)})
	flagV.SetNext(build.Bus{b.Mux(setCV, ovf, v)})
	closeScope()

	// Memory write port. The backend gets the architectural store decode
	// (public with the instruction stream) separately from the fully
	// gated enable: a deferring backend keys its bookkeeping off the
	// full enable, which stays public for public instruction streams
	// with public store predicates.
	closeScope = b.Scope("dmem.write")
	isStore := b.And(isMem, b.Not(instr[20]))
	stEn := b.AndTree([]build.W{isStore, condPass, running})
	mem.Write(wordAddr, rdVal, stEn)
	closeScope()

	// Next PC.
	closeScope = b.Scope("pc")
	brOff := build.SignExtend(instr[0:24], 30)
	brTarget := b.Add(pcPlus8, append(build.Bus{build.F, build.F}, brOff...))
	takeBranch := b.AndTree([]build.W{isBranch, condPass, running})
	doHalt := b.AndTree([]build.W{isSWI, condPass, running})
	haltNow := b.Or(halted, doHalt)
	pcNext := b.MuxBus(rdOnehot[15], wbData, pcPlus4)
	pcNext = b.MuxBus(takeBranch, brTarget, pcNext)
	pcNext = b.MuxBus(haltNow, pc, pcNext)
	pcReg.SetNext(pcNext)
	haltedReg.SetNext(build.Bus{haltNow})
	closeScope()

	// Outputs: the output memory region as the backend reconciles it at
	// the halting cycle, and the halt flag.
	closeScope = b.Scope("dmem.out")
	outWires := mem.Outputs(haltNow)
	closeScope()
	b.Output("out", outWires)
	b.Output("halted", haltedReg.Q())

	c, err := b.Compile()
	if err != nil {
		return nil, err
	}
	// The backend's width self-check is O(data words), noise next to the
	// build; the O(gates) structural lint runs only where it is asked for
	// (arm2gc-vet -netlist, build.Lint).
	if err := mem.Check(); err != nil {
		return nil, err
	}
	return &CPU{Circuit: c, Layout: l, Backend: mem.Name()}, nil
}

// muxtreeBits selects a per-opcode control bit from a 16-character table
// (table[i] = '1' when opcode i asserts the signal); since the opcode is
// usually public this costs nothing at runtime.
func muxtreeBits(b *build.Builder, opcode build.Bus, table string) build.W {
	if len(table) != 16 {
		panic("cpu: control table must have 16 entries")
	}
	items := make([]build.Bus, 16)
	for i := range items {
		items[i] = build.Bus{build.Const(table[i] == '1')}
	}
	return b.MuxTree(opcode, items)[0]
}

func log2(n int) int {
	k := 0
	for 1<<k < n {
		k++
	}
	return k
}

func log2ceil(n int) int { return log2(n) }

// PublicBits expands a program into the public input bit-vector p (the
// instruction-memory image).
func (c *CPU) PublicBits(p *isa.Program) ([]bool, error) {
	if p.Layout != c.Layout {
		return nil, fmt.Errorf("cpu: program layout %+v does not match processor %+v", p.Layout, c.Layout)
	}
	if len(p.Words) > c.Layout.IMemWords {
		return nil, fmt.Errorf("cpu: program of %d words exceeds imem %d", len(p.Words), c.Layout.IMemWords)
	}
	img := make([]uint32, c.Layout.IMemWords)
	copy(img, p.Words)
	return sim.UnpackWords(img), nil
}

// InputBits expands a party's input words into its input bit-vector,
// padded to the region size.
func (c *CPU) InputBits(owner circuit.Owner, words []uint32) ([]bool, error) {
	var region int
	switch owner {
	case circuit.Alice:
		region = c.Layout.AliceWords
	case circuit.Bob:
		region = c.Layout.BobWords
	default:
		return nil, fmt.Errorf("cpu: InputBits owner must be Alice or Bob")
	}
	if len(words) > region {
		return nil, fmt.Errorf("cpu: %d input words exceed region of %d", len(words), region)
	}
	img := make([]uint32, region)
	copy(img, words)
	return sim.UnpackWords(img), nil
}

// OutWords packs the "out" output bus back into words.
func OutWords(bits []bool) []uint32 { return sim.PackWords(bits) }
