package gc

// roundKeys is π's key schedule for the AES-NI passes, expanded once per
// process; nil when the CPU lacks AES-NI and the generic path runs.
var roundKeys = expandFixedKey()

func expandFixedKey() *[176]byte {
	if !cpuHasAES() {
		return nil
	}
	var enc [176]byte
	aesExpandKey((*[16]byte)(fixedKey), &enc)
	return &enc
}

// piXor4 replaces each of four blocks k with π(k) ⊕ k.
func (h *Hash) piXor4(b *[4]Label) {
	if roundKeys == nil {
		h.piXorGeneric(b[:])
		return
	}
	aesPiXor4(roundKeys, b)
}

// piXor2 replaces each of two blocks k with π(k) ⊕ k.
func (h *Hash) piXor2(b *[2]Label) {
	if roundKeys == nil {
		h.piXorGeneric(b[:])
		return
	}
	aesPiXor2(roundKeys, b)
}

// cpuHasAES reports CPUID.1:ECX.AES, the AES-NI feature bit.
func cpuHasAES() bool

// aesExpandKey writes the 11 round keys of AES-128 key to enc.
//
//go:noescape
func aesExpandKey(key *[16]byte, enc *[176]byte)

// aesPiXor4 replaces each of four blocks k with AES_enc(k) ⊕ k, the
// round keys enc applied to all four blocks before the next round's.
// A Label's in-memory layout on amd64 is its little-endian bytes, the AES
// block.
//
//go:noescape
func aesPiXor4(enc *[176]byte, b *[4]Label)

// aesPiXor2 is aesPiXor4 for two blocks.
//
//go:noescape
func aesPiXor2(enc *[176]byte, b *[2]Label)
