// Package core implements SkipGate (Algorithms 1–6 of the paper): the
// dynamic, gate-level optimization that lets a sequential garbled circuit
// with public inputs c = f(a, b, p) be evaluated at the cost of the reduced
// circuit fp(a, b).
//
// # Structure
//
// The paper has Alice and Bob independently run Phase 1 (gates with public
// inputs, categories i–ii) and Phase 2 (gates with secret inputs,
// categories iii–iv), agreeing implicitly on every skip decision; Bob
// tracks label identity and inversion with an extra flip bit (Section 3.3).
// We make that agreement an explicit object: a Scheduler that both parties
// run deterministically from public data only (the netlist, the public
// input p, and a public session seed). The Scheduler mirrors Alice's
// free-XOR label algebra over public 128-bit fingerprints:
//
//   - every fresh secret (party input bit, or the output of a garbled
//     category-iv non-XOR gate) gets a pseudorandom fingerprint;
//   - XOR combines fingerprints by XOR; inversion XORs a global ΔF —
//     exactly as labels combine under free-XOR with offset R.
//
// Fingerprint equality therefore coincides with label equality, so both
// parties compute identical gate categories, identical label_fanout
// reductions (Algorithm 6) and an identical set of filtered garbled tables
// (Algorithm 4 line 18) — which is what the paper's two phases establish.
// The crypto executors (Garbler, Evaluator) then do only the label work.
//
// Everything here is wire-stream-critical: both parties must derive
// byte-identical public circuit state, so code in this package must be
// fully deterministic (no map-order, wall-clock, global-rand, or
// scheduling dependence). The arm2gc-vet determinism analyzer enforces
// this; the next line is its machine-readable annotation.
//
//arm2gc:deterministic
package core

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"

	"arm2gc/internal/circuit"
	"arm2gc/internal/gc"
)

// FP is a wire fingerprint: a public stand-in for the garbler's false
// label, with the same XOR algebra.
type FP = gc.Label

// Seed keys the deterministic fingerprint generator. It is public and must
// be equal on both sides; the protocol layer derives it from the circuit
// hash and a session nonce.
type Seed [16]byte

// fpGen derives fingerprints with AES in a tweaked-block construction.
// The scratch buffers make derive allocation-free in the scheduler's hot
// loop, at the price of making one fpGen single-goroutine.
type fpGen struct {
	block   cipher.Block
	in, out [16]byte
}

func newFPGen(seed Seed) *fpGen {
	b, err := aes.NewCipher(seed[:])
	if err != nil {
		panic("core: aes: " + err.Error())
	}
	return &fpGen{block: b}
}

func (g *fpGen) derive(tag byte, a uint32, b uint64) FP {
	g.in[0] = tag
	binary.LittleEndian.PutUint32(g.in[1:5], a)
	binary.LittleEndian.PutUint64(g.in[5:13], b)
	g.block.Encrypt(g.out[:], g.in[:])
	return gc.LabelFromBytes(g.out[:])
}

// delta returns ΔF, the fingerprint-space image of the garbler's R.
func (g *fpGen) delta() FP { return g.derive(2, 0, 0) }

// input returns the fingerprint of input bit idx of owner.
func (g *fpGen) input(owner circuit.Owner, idx int) FP {
	return g.derive(1, uint32(owner), uint64(idx))
}

// fresh returns the fingerprint of a new base secret: the output of
// category-iv non-XOR gate `gate` in cycle `cycle`.
func (g *fpGen) fresh(cycle int, gate int) FP {
	return g.derive(0, uint32(gate), uint64(cycle))
}
