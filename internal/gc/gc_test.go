package gc

import (
	"crypto/aes"
	"math/rand"
	"testing"
	"testing/quick"

	"arm2gc/internal/circuit"
)

func TestLabelAlgebra(t *testing.T) {
	f := func(a, b, c Label) bool {
		if a.Xor(b) != b.Xor(a) {
			return false
		}
		if a.Xor(a) != (Label{}) {
			return false
		}
		if a.Xor(b).Xor(b) != a {
			return false
		}
		return a.Xor(b).Xor(c) == a.Xor(b.Xor(c))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLabelBytesRoundTrip(t *testing.T) {
	f := func(l Label) bool {
		b := l.Bytes()
		return LabelFromBytes(b[:]) == l
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDeltaPermuteBit(t *testing.T) {
	for i := 0; i < 64; i++ {
		if !RandDelta(CryptoRand).Bit() {
			t.Fatal("RandDelta produced delta with permute bit 0")
		}
	}
}

func TestDoubleLinear(t *testing.T) {
	// Doubling is linear over GF(2): (a ⊕ b)·x = a·x ⊕ b·x.
	f := func(a, b Label) bool {
		return a.Xor(b).double() == a.double().Xor(b.double())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHashTweakSeparation(t *testing.T) {
	h := NewHash()
	l := RandLabel(CryptoRand)
	if h.H(l, 1) == h.H(l, 2) {
		t.Error("same hash for different tweaks")
	}
	if h.H(l, 1) != h.H(l, 1) {
		t.Error("hash not deterministic")
	}
}

// TestHashMatchesDefinition checks H against π(2X ⊕ t) ⊕ (2X ⊕ t) computed
// from scratch for every call, so the instance's reused scratch block can
// never leak one call's bytes into the next.
func TestHashMatchesDefinition(t *testing.T) {
	pi, err := aes.NewCipher(fixedKey)
	if err != nil {
		t.Fatal(err)
	}
	h := NewHash()
	f := func(x Label, tweak uint64) bool {
		k := x.double()
		k.Lo ^= tweak
		in := k.Bytes()
		var out [16]byte
		pi.Encrypt(out[:], in[:])
		return h.H(x, tweak) == LabelFromBytes(out[:]).Xor(k)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestHashKnownAnswer pins H's definition with fixed vectors. H(0, 0) is
// π(0), which any AES-128 implementation reproduces under the key
// "arm2gc-fixed-key"; the other two set the top bit of a label (double's
// carry) and use the largest tweak.
func TestHashKnownAnswer(t *testing.T) {
	h := NewHash()
	for _, c := range []struct {
		x     Label
		tweak uint64
		want  Label
	}{
		{Label{}, 0, Label{Lo: 0xed44a2f5d18fe492, Hi: 0x81a42552dd1c014f}},
		{Label{Lo: 0x0123456789abcdef, Hi: 0xfedcba9876543210}, ^uint64(0), Label{Lo: 0xc7f54c43355a31c5, Hi: 0x612dd85d336ab914}},
		{Label{Lo: 0x8000000000000001, Hi: 0x7fffffffffffffff}, 0x2a, Label{Lo: 0xd4d114e62bf5ce5e, Hi: 0x393e4e310f863fd8}},
	} {
		if got := h.H(c.x, c.tweak); got != c.want {
			t.Errorf("H(%v, %#x) = %v, want %v", c.x, c.tweak, got, c.want)
		}
		a, b := h.hash2(c.x, c.x, c.tweak, c.tweak)
		if a != c.want || b != c.want {
			t.Errorf("hash2(%v, %#x) = %v, %v, want %v", c.x, c.tweak, a, b, c.want)
		}
	}
}

// piXorPaths are the multi-block π(k) ⊕ k passes checked against
// crypto/aes: the generic one everywhere, plus the AES-NI kernels, which
// hash_amd64_test.go adds when the CPU has them.
var piXorPaths = map[string]func(h *Hash, blocks []Label){
	"generic": (*Hash).piXorGeneric,
}

// TestHashBatchMatchesScalar checks the garbler's 4-block and the
// evaluator's 2-block hash against the scalar H, and every π(k) ⊕ k pass
// against crypto/aes, over random labels (half with the top bit set,
// which double carries out) and random tweaks plus 0, 1, 2⁶³ and 2⁶⁴−1.
func TestHashBatchMatchesScalar(t *testing.T) {
	pi, err := aes.NewCipher(fixedKey)
	if err != nil {
		t.Fatal(err)
	}
	oracle := func(k Label) Label { // π(k) ⊕ k
		in := k.Bytes()
		var out [16]byte
		pi.Encrypt(out[:], in[:])
		return LabelFromBytes(out[:]).Xor(k)
	}
	h := NewHash()
	rng := rand.New(rand.NewSource(31))
	label := func() Label {
		l := Label{Lo: rng.Uint64(), Hi: rng.Uint64()}
		if rng.Intn(2) == 0 {
			l.Hi |= 1 << 63
		}
		return l
	}
	edges := []uint64{0, 1, 1 << 63, ^uint64(0)}
	for i := 0; i < 10_000; i++ {
		a0, a1, b0, b1 := label(), label(), label(), label()
		j0, j1 := rng.Uint64(), rng.Uint64()
		if i < len(edges)*len(edges) {
			j0, j1 = edges[i%len(edges)], edges[i/len(edges)]
		}
		want := [4]Label{h.H(a0, j0), h.H(a1, j0), h.H(b0, j1), h.H(b1, j1)}
		if want[0] != oracle(tweaked(a0, j0)) {
			t.Fatalf("H(%v, %#x) off the definition", a0, j0)
		}
		if g0, g1, g2, g3 := h.hash4(a0, a1, b0, b1, j0, j1); [4]Label{g0, g1, g2, g3} != want {
			t.Fatalf("hash4(%v, %v, %v, %v, %#x, %#x) = %v %v %v %v, want %v", a0, a1, b0, b1, j0, j1, g0, g1, g2, g3, want)
		}
		if g0, g1 := h.hash2(a0, b1, j0, j1); g0 != want[0] || g1 != want[3] {
			t.Fatalf("hash2(%v, %v, %#x, %#x) = %v %v, want %v %v", a0, b1, j0, j1, g0, g1, want[0], want[3])
		}
		for name, piXor := range piXorPaths {
			in := []Label{a0, a1, b0, b1}
			for _, n := range []int{4, 2} {
				blocks := append([]Label(nil), in[:n]...)
				piXor(h, blocks)
				for k, x := range in[:n] {
					if blocks[k] != oracle(x) {
						t.Fatalf("%s: %d-block pass, block %d: π(k) ⊕ k for k = %v is %v, want %v", name, n, k, x, blocks[k], oracle(x))
					}
				}
			}
		}
	}
}

// TestHalfGatesDoNotAllocate pins the per-table cost at zero heap
// allocations on both parties: a table is four (garbler) or two
// (evaluator) fixed-key AES calls and nothing else.
func TestHalfGatesDoNotAllocate(t *testing.T) {
	h := NewHash()
	r := RandDelta(CryptoRand)
	s0, a0, b0 := RandLabel(CryptoRand), RandLabel(CryptoRand), RandLabel(CryptoRand)
	var tab Table
	var out Label
	for name, fn := range map[string]func(){
		"GarbleAnd": func() { out, tab = GarbleAnd(h, r, a0, b0, 7) },
		"EvalAnd":   func() { out = EvalAnd(h, a0, b0, tab, 7) },
		"GarbleMux": func() { out, tab = GarbleMux(h, r, s0, a0, b0, 9) },
		"EvalMux":   func() { out = EvalMux(h, s0, a0, b0, tab, 9) },
	} {
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("%s: %v allocations per table, want 0", name, n)
		}
	}
	_ = out
}

// TestHalfGatesTruthTables garbles each AND-class op in its AND form
// (AndForm + GarbleAndInv), evaluates it as a plain EvalAnd, and checks
// that all four input combinations decode to the op's truth table.
func TestHalfGatesTruthTables(t *testing.T) {
	h := NewHash()
	ops := []circuit.Op{circuit.AND, circuit.OR, circuit.NAND, circuit.NOR}
	for trial := 0; trial < 50; trial++ {
		r := RandDelta(CryptoRand)
		a0 := RandLabel(CryptoRand)
		b0 := RandLabel(CryptoRand)
		for _, op := range ops {
			gid := uint64(trial*4) + uint64(op)
			aInv, bInv, outInv := AndForm(op)
			c0, tab := GarbleAndInv(h, r, a0, b0, gid, aInv, bInv, outInv)
			for _, va := range []bool{false, true} {
				for _, vb := range []bool{false, true} {
					a := a0
					if va {
						a = a.Xor(r)
					}
					b := b0
					if vb {
						b = b.Xor(r)
					}
					got := EvalAnd(h, a, b, tab, gid)
					want := c0
					if op.Eval(va, vb) {
						want = want.Xor(r)
					}
					if got != want {
						t.Fatalf("%v(%v,%v): eval label mismatch", op, va, vb)
					}
				}
			}
		}
	}
}
