package gc

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
)

// Hash is the fixed-key-AES correlation-robust hash
// H(X, t) = π(2X ⊕ t) ⊕ (2X ⊕ t), with π a fixed AES-128 permutation
// [Bellare-Hoang-Keelveedhi-Rogaway].
//
// Half gates hash several independent blocks per gate: the garbler four
// (both labels of each input), the evaluator two (one per input). hash4
// and hash2 take one gate's blocks through π(k) ⊕ k in one pass, so on
// an amd64 CPU with AES-NI the AES rounds of the blocks overlap in the
// pipeline (hash_amd64.s, round keys expanded once per process). There,
// garbleBatches and evalBatches also take a batch of independent gates —
// two garbled or four evaluated, eight blocks either way — through one
// pass that gathers each operand label from its slot, doubles and tweaks
// it on the way in, and finishes the gates in place. Elsewhere, and on
// amd64 without AES-NI, the blocks go one after another through
// cipher.Block, gate by gate.
//
// A Hash belongs to one garbler or one evaluator for a whole session: the
// generic path encrypts in the instance's own scratch block (a local
// array would escape to the heap through the cipher.Block interface), so
// an instance must not be used from two goroutines at once.
type Hash struct {
	block cipher.Block
	buf   [16]byte
}

// fixedKey is an arbitrary public constant; the security of the scheme
// rests on π being a random permutation, not on key secrecy.
var fixedKey = []byte("arm2gc-fixed-key")

// NewHash builds the fixed-key hash.
func NewHash() *Hash {
	b, err := aes.NewCipher(fixedKey)
	if err != nil {
		panic("gc: aes: " + err.Error())
	}
	return &Hash{block: b}
}

// H computes H(x, tweak), one block through cipher.Block: the reference
// the multi-block passes are tested against.
func (h *Hash) H(x Label, tweak uint64) Label {
	k := [1]Label{tweaked(x, tweak)}
	h.piXorGeneric(k[:])
	return k[0]
}

// hash4 returns H(a0, j0), H(a1, j0), H(b0, j1) and H(b1, j1) — a garbled
// gate's four hashes — from one 4-block pass.
func (h *Hash) hash4(a0, a1, b0, b1 Label, j0, j1 uint64) (Label, Label, Label, Label) {
	k := [4]Label{tweaked(a0, j0), tweaked(a1, j0), tweaked(b0, j1), tweaked(b1, j1)}
	h.piXor4(&k)
	return k[0], k[1], k[2], k[3]
}

// hash2 returns H(a, j0) and H(b, j1) — an evaluated gate's two hashes —
// from one 2-block pass.
func (h *Hash) hash2(a, b Label, j0, j1 uint64) (Label, Label) {
	k := [2]Label{tweaked(a, j0), tweaked(b, j1)}
	h.piXor2(&k)
	return k[0], k[1]
}

// tweaked is the permutation's input 2x ⊕ t.
func tweaked(x Label, tweak uint64) Label {
	k := x.double()
	k.Lo ^= tweak
	return k
}

// piXorGeneric replaces each block k with π(k) ⊕ k, one cipher.Block call
// at a time through the scratch block. A Label's little-endian bytes are
// the AES block.
func (h *Hash) piXorGeneric(blocks []Label) {
	for i, k := range blocks {
		binary.LittleEndian.PutUint64(h.buf[0:8], k.Lo)
		binary.LittleEndian.PutUint64(h.buf[8:16], k.Hi)
		h.block.Encrypt(h.buf[:], h.buf[:])
		blocks[i] = LabelFromBytes(h.buf[:]).Xor(k)
	}
}
