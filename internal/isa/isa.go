// Package isa defines the ARM-style instruction set of the garbled
// processor: 32-bit instructions with a 4-bit condition field, the 16
// classic data-processing operations with shifted/rotated operands,
// multiply (MUL/MLA), word load/store with immediate offset, branch and
// branch-with-link, and SWI (used as HALT). Encodings follow the classic
// ARM layout so the binary "public input p" fed to SkipGate looks exactly
// like the paper's compiled code.
//
// Deviations from full ARM v2a, chosen to keep the processor netlist and
// the emulator exactly in sync (both implement *this* spec):
//   - shift amounts are taken literally (LSR/ASR/ROR #0 mean "no shift",
//     not the ARM #32/RRX special cases); the assembler never emits them;
//   - logical S-instructions update N and Z only (no shifter carry-out);
//   - LDR/STR support word-sized pre-indexed immediate offsets without
//     writeback (the addressing mode compilers emit for locals and
//     arrays); byte access and register offsets are not implemented.
package isa

import "fmt"

// Cond is the 4-bit condition field.
type Cond uint8

// Condition codes.
const (
	EQ Cond = iota // Z
	NE             // !Z
	CS             // C
	CC             // !C
	MI             // N
	PL             // !N
	VS             // V
	VC             // !V
	HI             // C && !Z
	LS             // !C || Z
	GE             // N == V
	LT             // N != V
	GT             // !Z && N == V
	LE             // Z || N != V
	AL             // always
	condInvalid
)

var condNames = [16]string{"eq", "ne", "cs", "cc", "mi", "pl", "vs", "vc", "hi", "ls", "ge", "lt", "gt", "le", "", "nv"}

func (c Cond) String() string {
	if c == AL {
		return ""
	}
	return condNames[c&15]
}

// Holds evaluates the condition against NZCV flags.
func (c Cond) Holds(n, z, cf, v bool) bool {
	switch c {
	case EQ:
		return z
	case NE:
		return !z
	case CS:
		return cf
	case CC:
		return !cf
	case MI:
		return n
	case PL:
		return !n
	case VS:
		return v
	case VC:
		return !v
	case HI:
		return cf && !z
	case LS:
		return !cf || z
	case GE:
		return n == v
	case LT:
		return n != v
	case GT:
		return !z && n == v
	case LE:
		return z || n != v
	default:
		return true
	}
}

// DPOp is the data-processing opcode (bits 24:21).
type DPOp uint8

// Data-processing opcodes.
const (
	OpAND DPOp = iota
	OpEOR
	OpSUB
	OpRSB
	OpADD
	OpADC
	OpSBC
	OpRSC
	OpTST
	OpTEQ
	OpCMP
	OpCMN
	OpORR
	OpMOV
	OpBIC
	OpMVN
)

var dpNames = [16]string{"and", "eor", "sub", "rsb", "add", "adc", "sbc", "rsc", "tst", "teq", "cmp", "cmn", "orr", "mov", "bic", "mvn"}

func (o DPOp) String() string { return dpNames[o&15] }

// WritesRd reports whether the opcode writes a destination register.
func (o DPOp) WritesRd() bool { return o < OpTST || o > OpCMN }

// Shift is an operand-2 shift type.
type Shift uint8

// Shift types.
const (
	LSL Shift = iota
	LSR
	ASR
	ROR
)

var shiftNames = [4]string{"lsl", "lsr", "asr", "ror"}

func (s Shift) String() string { return shiftNames[s&3] }

// Kind discriminates instruction classes.
type Kind uint8

// Instruction classes.
const (
	KindDP  Kind = iota // data processing
	KindMul             // MUL/MLA
	KindMem             // LDR/STR
	KindBranch
	KindSWI
)

// Instr is a decoded instruction.
type Instr struct {
	Kind Kind
	Cond Cond

	// Data processing.
	Op     DPOp
	S      bool // set flags
	Rd     uint8
	Rn     uint8
	Imm    bool   // operand2 is rotated immediate
	Imm8   uint8  // immediate value
	Rot    uint8  // immediate rotation / 2 (0..15)
	Rm     uint8  // operand2 register
	Sh     Shift  // operand2 shift type
	ShImm  uint8  // shift amount (0..31) when !ShReg
	ShReg  bool   // shift amount comes from Rs
	Rs     uint8  // shift-amount register / multiply operand
	Acc    bool   // MLA (multiply-accumulate); Rn is the accumulator
	Load   bool   // LDR vs STR
	Up     bool   // add vs subtract offset
	Off12  uint16 // 12-bit memory offset
	Imm24  int32  // branch word offset (signed), or SWI comment field
	Link   bool   // BL
	SwiImm uint32
}

// Imm32 returns the operand-2 immediate value: Imm8 rotated right by 2*Rot.
func (i Instr) Imm32() uint32 {
	v := uint32(i.Imm8)
	r := uint(i.Rot) * 2 % 32
	if r == 0 {
		return v
	}
	return v>>r | v<<(32-r)
}

// Encode packs the instruction into its 32-bit word.
func Encode(i Instr) (uint32, error) {
	w := uint32(i.Cond&15) << 28
	switch i.Kind {
	case KindDP:
		w |= uint32(i.Op&15) << 21
		if i.S {
			w |= 1 << 20
		}
		w |= uint32(i.Rn&15) << 16
		w |= uint32(i.Rd&15) << 12
		if i.Imm {
			w |= 1 << 25
			w |= uint32(i.Rot&15) << 8
			w |= uint32(i.Imm8)
		} else {
			w |= uint32(i.Rm & 15)
			w |= uint32(i.Sh&3) << 5
			if i.ShReg {
				w |= 1 << 4
				w |= uint32(i.Rs&15) << 8
			} else {
				w |= uint32(i.ShImm&31) << 7
			}
		}
		// Reject encodings that collide with MUL (register shift with the
		// 1001 pattern cannot happen because bit 7 is zero for ShReg).
	case KindMul:
		w |= 0b1001 << 4
		if i.Acc {
			w |= 1 << 21
		}
		if i.S {
			w |= 1 << 20
		}
		w |= uint32(i.Rd&15) << 16
		w |= uint32(i.Rn&15) << 12 // accumulator
		w |= uint32(i.Rs&15) << 8
		w |= uint32(i.Rm & 15)
	case KindMem:
		w |= 1 << 26
		w |= 1 << 24 // P: pre-indexed
		if i.Up {
			w |= 1 << 23
		}
		if i.Load {
			w |= 1 << 20
		}
		w |= uint32(i.Rn&15) << 16
		w |= uint32(i.Rd&15) << 12
		if i.Off12 > 0xfff {
			return 0, fmt.Errorf("isa: memory offset %d out of range", i.Off12)
		}
		w |= uint32(i.Off12)
	case KindBranch:
		w |= 0b101 << 25
		if i.Link {
			w |= 1 << 24
		}
		if i.Imm24 < -(1<<23) || i.Imm24 >= 1<<23 {
			return 0, fmt.Errorf("isa: branch offset %d out of range", i.Imm24)
		}
		w |= uint32(i.Imm24) & 0xffffff
	case KindSWI:
		w |= 0b1111 << 24
		w |= i.SwiImm & 0xffffff
	default:
		return 0, fmt.Errorf("isa: bad instruction kind %d", i.Kind)
	}
	return w, nil
}

// Decode unpacks a 32-bit instruction word.
func Decode(w uint32) (Instr, error) {
	i := Instr{Cond: Cond(w >> 28 & 15)}
	switch {
	case w>>22&0x3f == 0 && w>>4&15 == 0b1001:
		i.Kind = KindMul
		i.Acc = w>>21&1 == 1
		i.S = w>>20&1 == 1
		i.Rd = uint8(w >> 16 & 15)
		i.Rn = uint8(w >> 12 & 15)
		i.Rs = uint8(w >> 8 & 15)
		i.Rm = uint8(w & 15)
	case w>>26&3 == 0:
		i.Kind = KindDP
		i.Op = DPOp(w >> 21 & 15)
		i.S = w>>20&1 == 1
		i.Rn = uint8(w >> 16 & 15)
		i.Rd = uint8(w >> 12 & 15)
		if w>>25&1 == 1 {
			i.Imm = true
			i.Rot = uint8(w >> 8 & 15)
			i.Imm8 = uint8(w)
		} else {
			i.Rm = uint8(w & 15)
			i.Sh = Shift(w >> 5 & 3)
			if w>>4&1 == 1 {
				i.ShReg = true
				i.Rs = uint8(w >> 8 & 15)
			} else {
				i.ShImm = uint8(w >> 7 & 31)
			}
		}
	case w>>26&3 == 1:
		i.Kind = KindMem
		if w>>22&1 == 1 {
			return i, fmt.Errorf("isa: byte access unsupported (word %#08x)", w)
		}
		if w>>24&1 != 1 || w>>21&1 != 0 || w>>25&1 != 0 {
			return i, fmt.Errorf("isa: unsupported addressing mode (word %#08x)", w)
		}
		i.Up = w>>23&1 == 1
		i.Load = w>>20&1 == 1
		i.Rn = uint8(w >> 16 & 15)
		i.Rd = uint8(w >> 12 & 15)
		i.Off12 = uint16(w & 0xfff)
	case w>>25&7 == 0b101:
		i.Kind = KindBranch
		i.Link = w>>24&1 == 1
		off := int32(w&0xffffff) << 8 >> 8 // sign-extend 24 bits
		i.Imm24 = off
	case w>>24&15 == 0b1111:
		i.Kind = KindSWI
		i.SwiImm = w & 0xffffff
	default:
		return i, fmt.Errorf("isa: cannot decode %#08x", w)
	}
	return i, nil
}

// EncodeImm finds (imm8, rot) with value = ROR(imm8, 2*rot), in ARM's
// rotated-immediate scheme.
func EncodeImm(v uint32) (imm8 uint8, rot uint8, ok bool) {
	for r := 0; r < 16; r++ {
		sh := uint(r) * 2
		rv := v
		if sh != 0 {
			rv = v<<sh | v>>(32-sh)
		}
		if rv <= 0xff {
			return uint8(rv), uint8(r), true
		}
	}
	return 0, 0, false
}

// String renders the instruction in assembler syntax.
func (i Instr) String() string {
	c := i.Cond.String()
	switch i.Kind {
	case KindDP:
		s := ""
		if i.S && i.Op.WritesRd() {
			s = "s"
		}
		op2 := i.op2String()
		switch i.Op {
		case OpMOV, OpMVN:
			return fmt.Sprintf("%s%s%s r%d, %s", i.Op, c, s, i.Rd, op2)
		case OpTST, OpTEQ, OpCMP, OpCMN:
			return fmt.Sprintf("%s%s r%d, %s", i.Op, c, i.Rn, op2)
		default:
			return fmt.Sprintf("%s%s%s r%d, r%d, %s", i.Op, c, s, i.Rd, i.Rn, op2)
		}
	case KindMul:
		if i.Acc {
			return fmt.Sprintf("mla%s r%d, r%d, r%d, r%d", c, i.Rd, i.Rm, i.Rs, i.Rn)
		}
		return fmt.Sprintf("mul%s r%d, r%d, r%d", c, i.Rd, i.Rm, i.Rs)
	case KindMem:
		op := "str"
		if i.Load {
			op = "ldr"
		}
		sign := ""
		if !i.Up {
			sign = "-"
		}
		if i.Off12 == 0 {
			return fmt.Sprintf("%s%s r%d, [r%d]", op, c, i.Rd, i.Rn)
		}
		return fmt.Sprintf("%s%s r%d, [r%d, #%s%d]", op, c, i.Rd, i.Rn, sign, i.Off12)
	case KindBranch:
		op := "b"
		if i.Link {
			op = "bl"
		}
		return fmt.Sprintf("%s%s %+d", op, c, i.Imm24)
	case KindSWI:
		return fmt.Sprintf("swi%s %d", c, i.SwiImm)
	}
	return "?"
}

func (i Instr) op2String() string {
	if i.Imm {
		return fmt.Sprintf("#%d", i.Imm32())
	}
	if i.ShReg {
		return fmt.Sprintf("r%d, %s r%d", i.Rm, i.Sh, i.Rs)
	}
	if i.ShImm == 0 {
		return fmt.Sprintf("r%d", i.Rm)
	}
	return fmt.Sprintf("r%d, %s #%d", i.Rm, i.Sh, i.ShImm)
}
