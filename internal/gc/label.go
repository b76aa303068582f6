// Package gc implements the Yao garbled-circuit primitives SkipGate's
// kernels run: 128-bit wire labels with the free-XOR convention
// [Kolesnikov-Schneider], point-and-permute, fixed-key-AES hashing
// [Bellare et al.], and half-gates AND garbling [Zahur-Rosulek-Evans].
// Every garbled gate is a half-gates AND with free complements (AndForm,
// Ands) or the atomic MUX. The "w/o SkipGate" baseline is a count
// (cycles × non-XOR gates), not an executor.
//
// The fixed-key hash is the floor under every garbled table. Half gates
// hash independent blocks — four per garbled gate, two per evaluated
// gate — and a cycle's kernel hands GarbleAnds and EvalAnds runs of
// mutually independent gates, so on amd64 CPUs with AES-NI an assembly
// kernel encrypts eight blocks, two garbled or four evaluated gates, per
// pass. Elsewhere cipher.Block encrypts one block at a time, gate by
// gate. Every garbler and evaluator owns its Hash (the generic path
// encrypts in the instance's scratch block), so an instance is never
// shared between goroutines.
//
// Everything here is wire-stream-critical: both parties must derive
// byte-identical public circuit state, so code in this package must be
// fully deterministic (no map-order, wall-clock, global-rand, or
// scheduling dependence). The arm2gc-vet determinism analyzer enforces
// this; the next line is its machine-readable annotation.
//
//arm2gc:deterministic
package gc

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"io"
)

// Label is a 128-bit wire label. Under free-XOR, the label for logical 1 on
// a wire is X0 ⊕ R for the garbler's global offset R; the low bit of a
// label is its point-and-permute bit.
type Label struct {
	Lo, Hi uint64
}

// Xor returns l ⊕ m.
func (l Label) Xor(m Label) Label { return Label{l.Lo ^ m.Lo, l.Hi ^ m.Hi} }

// Bit returns the point-and-permute (low) bit.
func (l Label) Bit() bool { return l.Lo&1 != 0 }

// mask is all ones when the point-and-permute bit is set, zero otherwise.
func (l Label) mask() uint64 { return -(l.Lo & 1) }

// and returns l with each word ANDed with m.
func (l Label) and(m uint64) Label { return Label{l.Lo & m, l.Hi & m} }

// Bytes serializes the label little-endian.
func (l Label) Bytes() [16]byte {
	var b [16]byte
	binary.LittleEndian.PutUint64(b[0:8], l.Lo)
	binary.LittleEndian.PutUint64(b[8:16], l.Hi)
	return b
}

// LabelFromBytes deserializes a little-endian label.
func LabelFromBytes(b []byte) Label {
	return Label{
		Lo: binary.LittleEndian.Uint64(b[0:8]),
		Hi: binary.LittleEndian.Uint64(b[8:16]),
	}
}

func (l Label) String() string { return fmt.Sprintf("%016x%016x", l.Hi, l.Lo) }

// double multiplies the label by x in GF(2^128) (modulus x^128+x^7+x^2+x+1),
// the standard tweakable-hash doubling.
func (l Label) double() Label {
	carry := l.Hi >> 63
	hi := l.Hi<<1 | l.Lo>>63
	lo := l.Lo << 1
	if carry != 0 {
		lo ^= 0x87
	}
	return Label{lo, hi}
}

// RandLabel draws a uniform label from rnd. It panics on a short read, so
// rnd must not fail: session paths read their label bytes up front
// (core.ReadReplayGarbler) and draw from an in-memory reader.
func RandLabel(rnd io.Reader) Label {
	var b [16]byte
	if _, err := io.ReadFull(rnd, b[:]); err != nil {
		panic(fmt.Sprintf("gc: label randomness: %v", err))
	}
	return LabelFromBytes(b[:])
}

// RandDelta draws the garbler's global free-XOR offset R; its permute bit
// is forced to 1 so that the two labels of every wire carry opposite
// point-and-permute bits.
func RandDelta(rnd io.Reader) Label {
	r := RandLabel(rnd)
	r.Lo |= 1
	return r
}

// CryptoRand is the process-wide CSPRNG reader.
var CryptoRand io.Reader = rand.Reader
