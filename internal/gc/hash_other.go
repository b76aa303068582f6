//go:build !amd64

package gc

// Off amd64 the multi-block passes take the generic path: one
// cipher.Block call per block.

// piXor4 replaces each of four blocks k with π(k) ⊕ k.
func (h *Hash) piXor4(b *[4]Label) { h.piXorGeneric(b[:]) }

// piXor2 replaces each of two blocks k with π(k) ⊕ k.
func (h *Hash) piXor2(b *[2]Label) { h.piXorGeneric(b[:]) }
