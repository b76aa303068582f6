package bencher

import (
	"context"
	"crypto/aes"
	"math/rand"
	"testing"

	"arm2gc/internal/core"
	"arm2gc/internal/ref"
	"arm2gc/internal/sim"
)

func TestTowerFieldIsomorphism(t *testing.T) {
	tw := Tower()
	// φ is a field isomorphism: check multiplicativity on random pairs and
	// additivity exhaustively on a basis (the search already did; re-verify).
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		a, b := uint8(rng.Intn(256)), uint8(rng.Intn(256))
		if tw.Phi[aesMul(a, b)] != gf8Mul(tw.M, tw.Phi[a], tw.Phi[b]) {
			t.Fatalf("phi not multiplicative at %d, %d", a, b)
		}
		if tw.Phi[a^b] != tw.Phi[a]^tw.Phi[b] {
			t.Fatalf("phi not additive at %d, %d", a, b)
		}
		if tw.Psi[tw.Phi[a]] != a {
			t.Fatalf("psi not inverse at %d", a)
		}
	}
}

func TestSboxReference(t *testing.T) {
	// Spot-check the derived S-box against universally known entries.
	tw := Tower()
	known := map[uint8]uint8{0x00: 0x63, 0x01: 0x7c, 0x53: 0xed, 0xff: 0x16}
	for in, want := range known {
		if tw.SboxRef[in] != want {
			t.Errorf("sbox[%#02x] = %#02x, want %#02x", in, tw.SboxRef[in], want)
		}
	}
}

func TestSboxCircuitExhaustive(t *testing.T) {
	// One circuit per 256 inputs would be slow; build once with an Alice
	// input and simulate all values.
	b := newTestBuilder("sbox")
	in := b.Input(aliceOwner(), "x", 8)
	b.Output("y", CSbox(b, in))
	c := b.MustCompile()
	tw := Tower()
	for x := 0; x < 256; x++ {
		out := sim.Run(c, sim.Inputs{Alice: sim.UnpackUint(uint64(x), 8)}, 1)
		if got := uint8(sim.PackUint(out)); got != tw.SboxRef[x] {
			t.Fatalf("sbox circuit(%#02x) = %#02x, want %#02x", x, got, tw.SboxRef[x])
		}
	}
}

func TestAESCircuitMatchesStdlib(t *testing.T) {
	c, cycles := AESCircuit()
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 5; trial++ {
		var pt, key [16]byte
		rng.Read(pt[:])
		rng.Read(key[:])
		in := sim.Inputs{Alice: bytesToBits(pt[:]), Bob: bytesToBits(key[:])}
		out := sim.Run(c, in, cycles)
		got := bitsToBytes(out)
		block, err := aes.NewCipher(key[:])
		if err != nil {
			t.Fatal(err)
		}
		var want [16]byte
		block.Encrypt(want[:], pt[:])
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: AES circuit byte %d = %#02x, want %#02x", trial, i, got[i], want[i])
			}
		}
	}
}

func TestAESSkipGateCount(t *testing.T) {
	c, cycles := AESCircuit()
	st, _, err := core.Count(context.Background(), c, nil, core.CountOpts{Cycles: cycles})
	if err != nil {
		t.Fatal(err)
	}
	// 20 S-boxes × 36 AND × 10 rounds = 7,200 (paper: 6,400 with the
	// 32-AND Boyar-Peralta S-box).
	if st.Total.Garbled != 7200 {
		t.Errorf("AES garbled %d tables, want 7200", st.Total.Garbled)
	}
}

func TestSHA3CircuitMatchesReference(t *testing.T) {
	c, cycles := SHA3Circuit()
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 3; trial++ {
		// XOR-shared padded block: pick a short message, pad per FIPS 202,
		// split into random shares.
		msg := make([]byte, 40+trial*13)
		rng.Read(msg)
		block := make([]byte, 136)
		copy(block, msg)
		block[len(msg)] = 0x06
		block[135] |= 0x80

		shareA := make([]byte, 136)
		rng.Read(shareA)
		shareB := make([]byte, 136)
		for i := range shareB {
			shareB[i] = shareA[i] ^ block[i]
		}
		in := sim.Inputs{Alice: bytesToBits(shareA), Bob: bytesToBits(shareB)}
		out := sim.Run(c, in, cycles)
		got := bitsToBytes(out)
		want := ref.SHA3_256(msg)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: SHA3 circuit byte %d = %#02x, want %#02x", trial, i, got[i], want[i])
			}
		}
	}
}

func TestSHA3SkipGateCount(t *testing.T) {
	c, cycles := SHA3Circuit()
	st, _, err := core.Count(context.Background(), c, nil, core.CountOpts{Cycles: cycles})
	if err != nil {
		t.Fatal(err)
	}
	// χ: 1600 AND per round × 24 rounds — exactly the paper's 38,400.
	if st.Total.Garbled != 38400 {
		t.Errorf("SHA3 garbled %d tables, want 38400", st.Total.Garbled)
	}
}

func TestSerialCircuits(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		a64 := rng.Uint32()
		b64 := rng.Uint32()
		av, bv := uint64(a64), uint64(b64)

		sumC, n := SumSerial(32)
		in := sim.Inputs{Alice: sim.UnpackUint(av, 32), Bob: sim.UnpackUint(bv, 32)}
		s := sim.New(sumC, in)
		var got uint64
		for i := 0; i < n; i++ {
			s.Step()
			bits, _ := s.Output("sum")
			if bits[0] {
				got |= 1 << uint(i)
			}
		}
		if got != (av+bv)&0xffffffff {
			t.Fatalf("serial sum = %#x, want %#x", got, (av+bv)&0xffffffff)
		}

		cmpC, n := CompareSerial(32)
		out := sim.Run(cmpC, in, n)
		wantLt := av < bv
		if out[0] != wantLt {
			t.Fatalf("serial compare(%d, %d) = %v, want %v", av, bv, out[0], wantLt)
		}

		hamC, n := HammingSerial(32)
		out = sim.Run(hamC, in, n)
		if got := sim.PackUint(out); got != uint64(ref.Popcount32(a64^b64)) {
			t.Fatalf("serial hamming = %d, want %d", got, ref.Popcount32(a64^b64))
		}

		mulC, n := MultSerial(32)
		out = sim.Run(mulC, in, n)
		if got := sim.PackUint(out); got != av*bv {
			t.Fatalf("serial mult = %#x, want %#x", got, av*bv)
		}
	}
}

func TestSerialSkipGateCounts(t *testing.T) {
	// The Table 1 shape: per-cycle costs and final-cycle skips.
	cases := []struct {
		name             string
		mk               func() (*circuitT, int)
		garbled, skipped int
	}{
		{"sum32", wrap(SumSerial, 32), 31, 1},
		{"compare32", wrap(CompareSerial, 32), 32, 0},
		{"mult32", wrap(MultSerial, 32), 2016, 32},
	}
	for _, tc := range cases {
		c, cycles := tc.mk()
		st, _, err := core.Count(context.Background(), c, nil, core.CountOpts{Cycles: cycles})
		if err != nil {
			t.Fatal(err)
		}
		if st.Total.Garbled != tc.garbled {
			t.Errorf("%s: garbled %d, want %d", tc.name, st.Total.Garbled, tc.garbled)
		}
		conventional := c.Stats().NonXOR * cycles
		if conventional-st.Total.Garbled != tc.skipped {
			t.Errorf("%s: skipped %d, want %d", tc.name, conventional-st.Total.Garbled, tc.skipped)
		}
	}
}

func TestMatrixMult(t *testing.T) {
	const n, bits = 3, 32
	c, cycles := MatrixMult(n, bits)
	rng := rand.New(rand.NewSource(6))
	am := make([]uint32, n*n)
	bm := make([]uint32, n*n)
	for i := range am {
		am[i] = rng.Uint32() % 1000
		bm[i] = rng.Uint32() % 1000
	}
	in := sim.Inputs{Alice: sim.UnpackWords(am), Bob: sim.UnpackWords(bm)}
	out := sim.Run(c, in, cycles)
	got := sim.PackWords(out)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var want uint32
			for k := 0; k < n; k++ {
				want += am[i*n+k] * bm[k*n+j]
			}
			if got[i*n+j] != want {
				t.Errorf("c[%d][%d] = %d, want %d", i, j, got[i*n+j], want)
			}
		}
	}

	st, _, err := core.Count(context.Background(), c, nil, core.CountOpts{Cycles: cycles})
	if err != nil {
		t.Fatal(err)
	}
	// ≈ N³ × (mult ≈ 993 + add 31): paper reports 25,668 (TinyGarble) and
	// 27,369 (ARM2GC) for 3×3.
	if st.Total.Garbled < 25000 || st.Total.Garbled > 30000 {
		t.Errorf("matmul 3x3 garbled %d, want ≈27k", st.Total.Garbled)
	}
}
