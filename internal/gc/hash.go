package gc

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
)

// Hash is the fixed-key-AES correlation-robust hash
// H(X, t) = π(2X ⊕ t) ⊕ (2X ⊕ t), with π a fixed AES-128 permutation
// [Bellare-Hoang-Keelveedhi-Rogaway]. A Hash belongs to one garbler or
// one evaluator for a whole session: H encrypts in the instance's own
// scratch block (a local array would escape to the heap through the
// cipher.Block interface, twice per call), so an instance must not be
// used from two goroutines at once.
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

// H computes H(x, tweak).
func (h *Hash) H(x Label, tweak uint64) Label {
	k := x.double()
	k.Lo ^= tweak
	binary.LittleEndian.PutUint64(h.buf[0:8], k.Lo)
	binary.LittleEndian.PutUint64(h.buf[8:16], k.Hi)
	h.block.Encrypt(h.buf[:], h.buf[:])
	return LabelFromBytes(h.buf[:]).Xor(k)
}
