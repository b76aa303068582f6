#include "textflag.h"

// func cpuHasAES() bool
TEXT ·cpuHasAES(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	SHRL $25, CX
	ANDL $1, CX
	MOVB CX, ret+0(FP)
	RET

// EXPAND derives the next AES-128 round key in X0 from the previous one
// and the round constant rcon, and stores it at off(BX): the new words
// are the running XOR of the old ones, each XORed with
// RotWord(SubWord(w3)) ⊕ rcon.
#define EXPAND(rcon, off) \
	AESKEYGENASSIST $rcon, X0, X1; \
	PSHUFD $0xff, X1, X1; \
	MOVO X0, X2; \
	PSLLO $4, X2; \
	PXOR X2, X0; \
	PSLLO $4, X2; \
	PXOR X2, X0; \
	PSLLO $4, X2; \
	PXOR X2, X0; \
	PXOR X1, X0; \
	MOVOU X0, off(BX)

// func aesExpandKey(key *[16]byte, enc *[176]byte)
TEXT ·aesExpandKey(SB), NOSPLIT, $0-16
	MOVQ key+0(FP), AX
	MOVQ enc+8(FP), BX
	MOVOU (AX), X0
	MOVOU X0, (BX)
	EXPAND(0x01, 16)
	EXPAND(0x02, 32)
	EXPAND(0x04, 48)
	EXPAND(0x08, 64)
	EXPAND(0x10, 80)
	EXPAND(0x20, 96)
	EXPAND(0x40, 112)
	EXPAND(0x80, 128)
	EXPAND(0x1b, 144)
	EXPAND(0x36, 160)
	RET

// ROUND4 runs round key off(AX) over the four blocks in X0–X3: four
// independent AESENCs the pipeline overlaps.
#define ROUND4(off) \
	MOVOU off(AX), X4; \
	AESENC X4, X0; \
	AESENC X4, X1; \
	AESENC X4, X2; \
	AESENC X4, X3

// func aesPiXor4(enc *[176]byte, b *[4]Label)
TEXT ·aesPiXor4(SB), NOSPLIT, $0-16
	MOVQ enc+0(FP), AX
	MOVQ b+8(FP), BX
	MOVOU (AX), X4
	MOVOU 0(BX), X0
	MOVOU 16(BX), X1
	MOVOU 32(BX), X2
	MOVOU 48(BX), X3
	PXOR X4, X0
	PXOR X4, X1
	PXOR X4, X2
	PXOR X4, X3
	ROUND4(16)
	ROUND4(32)
	ROUND4(48)
	ROUND4(64)
	ROUND4(80)
	ROUND4(96)
	ROUND4(112)
	ROUND4(128)
	ROUND4(144)
	MOVOU 160(AX), X4
	AESENCLAST X4, X0
	AESENCLAST X4, X1
	AESENCLAST X4, X2
	AESENCLAST X4, X3
	MOVOU 0(BX), X4
	PXOR X4, X0
	MOVOU 16(BX), X4
	PXOR X4, X1
	MOVOU 32(BX), X4
	PXOR X4, X2
	MOVOU 48(BX), X4
	PXOR X4, X3
	MOVOU X0, 0(BX)
	MOVOU X1, 16(BX)
	MOVOU X2, 32(BX)
	MOVOU X3, 48(BX)
	RET

// ROUND2 is ROUND4 over the two blocks in X0 and X1.
#define ROUND2(off) \
	MOVOU off(AX), X4; \
	AESENC X4, X0; \
	AESENC X4, X1

// func aesPiXor2(enc *[176]byte, b *[2]Label)
TEXT ·aesPiXor2(SB), NOSPLIT, $0-16
	MOVQ enc+0(FP), AX
	MOVQ b+8(FP), BX
	MOVOU (AX), X4
	MOVOU 0(BX), X0
	MOVOU 16(BX), X1
	PXOR X4, X0
	PXOR X4, X1
	ROUND2(16)
	ROUND2(32)
	ROUND2(48)
	ROUND2(64)
	ROUND2(80)
	ROUND2(96)
	ROUND2(112)
	ROUND2(128)
	ROUND2(144)
	MOVOU 160(AX), X4
	AESENCLAST X4, X0
	AESENCLAST X4, X1
	MOVOU 0(BX), X4
	PXOR X4, X0
	MOVOU 16(BX), X4
	PXOR X4, X1
	MOVOU X0, 0(BX)
	MOVOU X1, 16(BX)
	RET

// The batched passes hash eight blocks gathered from a label array: the
// operand slots, table indexes and gates of a run of ANDs are int32
// arrays (gc.Ands), each pass reading a batch's entries in a row.

// dbl is the doubling mask: the high word's top bit folds into the low
// word as 0x87, the low word's top bit carries into the high word as 1.
DATA dbl<>+0(SB)/8, $0x87
DATA dbl<>+8(SB)/8, $1
GLOBL dbl<>(SB), RODATA|NOPTR, $16

// LOAD loads the label in the slot named by the int32 at off(P) from the
// array at SI into X: two 8-byte loads, not one 16-byte load, so that a
// label written a few gates ago with two 8-byte stores forwards to them
// instead of stalling.
#define LOAD(off, P, X) \
	MOVLQSX off(P), CX; \
	SHLQ $4, CX; \
	MOVQ (SI)(CX*1), X; \
	MOVHPD 8(SI)(CX*1), X

// DOUBLE doubles X in GF(2^128): each word shifts left one bit, and the
// two top bits, spread to their words' lanes by PSRAL and PSHUFD and
// masked with dbl in X11, come back in. X9 is scratch.
#define DOUBLE(X) \
	MOVO X, X9; \
	PSRAL $31, X9; \
	PSHUFD $0x5f, X9, X9; \
	PAND X11, X9; \
	PSLLQ $1, X; \
	PXOR X9, X

// LOADDBL is LOAD, then DOUBLE.
#define LOADDBL(off, P, X) \
	LOAD(off, P, X); \
	DOUBLE(X)

// TWEAK XORs tweak 2·gid into XA and 2·gid+1 into XB, gid being the base
// in R13 plus the int32 gate at off(R12). X13 is scratch.
#define TWEAK(off, XA, XB) \
	MOVLQSX off(R12), DX; \
	ADDQ R13, DX; \
	SHLQ $1, DX; \
	MOVQ DX, X13; \
	PXOR X13, XA; \
	INCQ DX; \
	MOVQ DX, X13; \
	PXOR X13, XB

// ROUND8 runs round key off(AX) over the eight blocks in X0–X7.
#define ROUND8(off) \
	MOVOU off(AX), X8; \
	AESENC X8, X0; \
	AESENC X8, X1; \
	AESENC X8, X2; \
	AESENC X8, X3; \
	AESENC X8, X4; \
	AESENC X8, X5; \
	AESENC X8, X6; \
	AESENC X8, X7

// FF feeds block X forward: X ⊕= the input block saved at off(BX).
#define FF(off, X) \
	MOVOU off(BX), X8; \
	PXOR X8, X

// PIXOR8 saves the eight blocks in X0–X7 at BX, encrypts them under the
// round keys at AX and leaves π(k) ⊕ k in each register.
#define PIXOR8 \
	MOVOU X0, 0(BX); \
	MOVOU X1, 16(BX); \
	MOVOU X2, 32(BX); \
	MOVOU X3, 48(BX); \
	MOVOU X4, 64(BX); \
	MOVOU X5, 80(BX); \
	MOVOU X6, 96(BX); \
	MOVOU X7, 112(BX); \
	MOVOU (AX), X8; \
	PXOR X8, X0; \
	PXOR X8, X1; \
	PXOR X8, X2; \
	PXOR X8, X3; \
	PXOR X8, X4; \
	PXOR X8, X5; \
	PXOR X8, X6; \
	PXOR X8, X7; \
	ROUND8(16); \
	ROUND8(32); \
	ROUND8(48); \
	ROUND8(64); \
	ROUND8(80); \
	ROUND8(96); \
	ROUND8(112); \
	ROUND8(128); \
	ROUND8(144); \
	MOVOU 160(AX), X8; \
	AESENCLAST X8, X0; \
	AESENCLAST X8, X1; \
	AESENCLAST X8, X2; \
	AESENCLAST X8, X3; \
	AESENCLAST X8, X4; \
	AESENCLAST X8, X5; \
	AESENCLAST X8, X6; \
	AESENCLAST X8, X7; \
	FF(0, X0); \
	FF(16, X1); \
	FF(32, X2); \
	FF(48, X3); \
	FF(64, X4); \
	FF(80, X5); \
	FF(96, X6); \
	FF(112, X7)

// PMASK turns X into all ones when its low bit (a label's permute bit) is
// set, all zeros otherwise.
#define PMASK(X) \
	PSLLQ $63, X; \
	PSRAL $31, X; \
	PSHUFD $0x55, X, X

// BITMASK sets X to all ones when bit n of BX is set, all zeros
// otherwise. DX is scratch.
#define BITMASK(n, X) \
	MOVQ BX, DX; \
	SHRQ $n, DX; \
	ANDQ $1, DX; \
	NEGQ DX; \
	MOVQ DX, X; \
	PSHUFD $0x44, X, X

// GARBFIN finishes garbled AND j of the batch from the hashes of its
// operand slots' labels x and y, H(x) in HA0, H(x ⊕ R) in HA1, H(y) in
// HB0 and H(y ⊕ R) in HB1, with R in X12, the AND's complement bits
// inv[j] at AX (loaded into BX), its operand slots at R8 and R9, its output slot at R10
// and its table index at R11. A complemented operand's false label is
// its slot's ⊕ R, whose two hashes trade places: with the difference of
// the pair in X14 (a) or X15 (b), HA0 or HB0 takes the other hash by
// XORing in the masked difference. Then, with a0 in X9 and b0 in X10 and
// their permute bits as masks, the half gates: TG = ΔA ⊕ (R if pb), WG =
// H(a0) ⊕ (TG if pa), TE = ΔB ⊕ a0, WE = H(b0) ⊕ (ΔB if pb), and the
// output false label WG ⊕ WE, ⊕ R if the output is complemented. TG and
// TE go to the table's place in the frame at DI. X8, X11 and X13 are
// scratch.
#define GARBFIN(j, HA0, HA1, HB0, HB1) \
	MOVBLZX j(AX), BX; \
	BITMASK(0, X13); \
	MOVO HA0, X14; \
	PXOR HA1, X14; \
	MOVO X14, X11; \
	PAND X13, X11; \
	PXOR X11, HA0; \
	LOAD((4*j), R8, X9); \
	PAND X12, X13; \
	PXOR X13, X9; \
	BITMASK(1, X13); \
	MOVO HB0, X15; \
	PXOR HB1, X15; \
	MOVO X15, X11; \
	PAND X13, X11; \
	PXOR X11, HB0; \
	LOAD((4*j), R9, X10); \
	PAND X12, X13; \
	PXOR X13, X10; \
	MOVO X9, X13; \
	PMASK(X13); \
	MOVO X10, X11; \
	PMASK(X11); \
	MOVO X12, X8; \
	PAND X11, X8; \
	PXOR X14, X8; \
	MOVO X8, X10; \
	PAND X13, X10; \
	PXOR X10, HA0; \
	MOVLQSX (4*j)(R11), DX; \
	SHLQ $5, DX; \
	MOVOU X8, (DI)(DX*1); \
	MOVO X15, X8; \
	PXOR X9, X8; \
	MOVOU X8, 16(DI)(DX*1); \
	PAND X11, X15; \
	PXOR X15, HB0; \
	PXOR HB0, HA0; \
	BITMASK(2, X13); \
	PAND X12, X13; \
	PXOR X13, HA0; \
	MOVLQSX (4*j)(R10), DX; \
	SHLQ $4, DX; \
	MOVOU HA0, (SI)(DX*1)

// func aesGarbleAnds(enc *[176]byte, labels *Label, a, b, out, table, gate *int32, inv *uint8, base uint64, r *Label, tables *byte)
TEXT ·aesGarbleAnds(SB), NOSPLIT, $128-88
	MOVQ enc+0(FP), AX
	MOVQ labels+8(FP), SI
	MOVQ a+16(FP), R8
	MOVQ b+24(FP), R9
	MOVQ out+32(FP), R10
	MOVQ table+40(FP), R11
	MOVQ gate+48(FP), R12
	MOVQ base+64(FP), R13
	MOVQ r+72(FP), DX
	MOVQ tables+80(FP), DI
	LEAQ 0(SP), BX
	MOVOU dbl<>(SB), X11
	MOVOU (DX), X12
	DOUBLE(X12)
	LOADDBL(0, R8, X0)
	LOADDBL(0, R9, X2)
	TWEAK(0, X0, X2)
	MOVO X0, X1
	PXOR X12, X1
	MOVO X2, X3
	PXOR X12, X3
	LOADDBL(4, R8, X4)
	LOADDBL(4, R9, X6)
	TWEAK(4, X4, X6)
	MOVO X4, X5
	PXOR X12, X5
	MOVO X6, X7
	PXOR X12, X7
	PIXOR8
	MOVQ r+72(FP), DX
	MOVOU (DX), X12
	MOVQ inv+56(FP), AX
	GARBFIN(0, X0, X1, X2, X3)
	GARBFIN(1, X4, X5, X6, X7)
	RET

// EVALFIN finishes AND j of the batch from its hashes H(a) in XA and H(b)
// in XB: with the table at the index table[j] names in the frame at DI,
// XA ⊕= TG if a's permute bit is set, XB ⊕= TE ⊕ a if b's is, and
// XA ⊕ XB goes to slot out[j]. X9, X10 and X12 are scratch.
#define EVALFIN(j, XA, XB) \
	MOVLQSX (4*j)(R11), CX; \
	SHLQ $5, CX; \
	MOVLQSX (4*j)(R8), DX; \
	SHLQ $4, DX; \
	MOVQ (SI)(DX*1), X9; \
	MOVHPD 8(SI)(DX*1), X9; \
	MOVO X9, X10; \
	PMASK(X10); \
	MOVOU (DI)(CX*1), X12; \
	PAND X10, X12; \
	PXOR X12, XA; \
	MOVLQSX (4*j)(R9), DX; \
	SHLQ $4, DX; \
	MOVQ (SI)(DX*1), X10; \
	PMASK(X10); \
	MOVOU 16(DI)(CX*1), X12; \
	PXOR X9, X12; \
	PAND X10, X12; \
	PXOR X12, XB; \
	PXOR XB, XA; \
	MOVLQSX (4*j)(R10), DX; \
	SHLQ $4, DX; \
	MOVOU XA, (SI)(DX*1)

// func aesEvalAnds(enc *[176]byte, labels *Label, a, b, out, table, gate *int32, base uint64, tables *byte)
TEXT ·aesEvalAnds(SB), NOSPLIT, $128-72
	MOVQ enc+0(FP), AX
	MOVQ labels+8(FP), SI
	MOVQ a+16(FP), R8
	MOVQ b+24(FP), R9
	MOVQ out+32(FP), R10
	MOVQ table+40(FP), R11
	MOVQ gate+48(FP), R12
	MOVQ base+56(FP), R13
	MOVQ tables+64(FP), DI
	LEAQ 0(SP), BX
	MOVOU dbl<>(SB), X11
	LOADDBL(0, R8, X0)
	LOADDBL(0, R9, X1)
	TWEAK(0, X0, X1)
	LOADDBL(4, R8, X2)
	LOADDBL(4, R9, X3)
	TWEAK(4, X2, X3)
	LOADDBL(8, R8, X4)
	LOADDBL(8, R9, X5)
	TWEAK(8, X4, X5)
	LOADDBL(12, R8, X6)
	LOADDBL(12, R9, X7)
	TWEAK(12, X6, X7)
	PIXOR8
	EVALFIN(0, X0, X1)
	EVALFIN(1, X2, X3)
	EVALFIN(2, X4, X5)
	EVALFIN(3, X6, X7)
	RET
