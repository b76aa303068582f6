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
