package gc

import (
	"bytes"
	"crypto/aes"
	"math/rand"
	"slices"
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
// evaluator's 2-block hash against the scalar H, every π(k) ⊕ k pass
// against crypto/aes, and GarbleAnds and EvalAnds (with AES-NI, the
// batched passes, which gather, double and tweak in registers) against H,
// over random labels (half with the top bit set, which double carries
// out) and random tweaks plus 0, 1, 2⁶³ and 2⁶⁴−1 (a run's tweaks are
// 2·gid and 2·gid+1, so its edge gate-id bases are 0, 2⁶²−1, 2⁶², 2⁶³
// and 2⁶⁴−2²⁰, which the gates' offsets carry past 2⁶⁴).
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
	gidEdges := []uint64{0, 1<<62 - 1, 1 << 62, 1 << 63, ^uint64(0) - 1<<20}
	labels := make([]Label, 32+EvalBatch)
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

		// A run of EvalBatch ANDs with random complements over random
		// slots (repeats allowed) of the first 32 labels, writing the last
		// ones, with distinct random table indexes: the garbler's is
		// checked against H and garbleOne, the evaluator's, on random
		// table bytes, against EvalAnd.
		for k := range labels {
			labels[k] = label()
		}
		run := &Ands{Base: rng.Uint64() >> 1}
		if i < len(gidEdges) {
			run.Base = gidEdges[i]
		}
		perm := rng.Perm(2 * EvalBatch)
		for k := range EvalBatch {
			run.A = append(run.A, int32(rng.Intn(32)))
			run.B = append(run.B, int32(rng.Intn(32)))
			run.Out = append(run.Out, int32(32+k))
			run.Table = append(run.Table, int32(perm[k]))
			run.Gate = append(run.Gate, int32(rng.Intn(1<<20)))
			run.Inv = append(run.Inv, uint8(rng.Intn(8)))
		}
		r := label()
		r.Lo |= 1
		wantGL, wantGT := slices.Clone(labels), make([]byte, 2*EvalBatch*TableBytes)
		for k := range EvalBatch {
			x, y, gid := labels[run.A[k]], labels[run.B[k]], run.Base+uint64(run.Gate[k])
			ha0, ha1, hb0, hb1 := h.H(x, 2*gid), h.H(x.Xor(r), 2*gid), h.H(y, 2*gid+1), h.H(y.Xor(r), 2*gid+1)
			garbleOne(r, wantGL, run, k, wantGT, ha0, ha1, hb0, hb1)
		}
		gotGL, gotGT := slices.Clone(labels), make([]byte, len(wantGT))
		GarbleAnds(h, r, gotGL, run, gotGT)
		if !slices.Equal(gotGL, wantGL) || !bytes.Equal(gotGT, wantGT) {
			t.Fatalf("GarbleAnds(%+v): labels %v tables %x, want %v %x", run, gotGL[32:], gotGT, wantGL[32:], wantGT)
		}
		tables := make([]byte, 2*EvalBatch*TableBytes)
		rng.Read(tables)
		wantE := slices.Clone(labels)
		for k := range EvalBatch {
			x, y, gid := labels[run.A[k]], labels[run.B[k]], run.Base+uint64(run.Gate[k])
			wantE[run.Out[k]] = EvalAnd(h, x, y, TableFromBytes(tables[TableBytes*int(run.Table[k]):]), gid)
		}
		gotE := slices.Clone(labels)
		EvalAnds(h, gotE, run, tables)
		if !slices.Equal(gotE, wantE) {
			t.Fatalf("EvalAnds(%+v) = %v, want %v", run, gotE[32:], wantE[32:])
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
// (AndForm as the AND's complements) through GarbleAnds, evaluates it
// through EvalAnds, and checks that all four input combinations decode to
// the op's truth table. Each trial runs the four ops as one run, which
// takes the garbler's 8-block passes and then one op alone, the path a
// batch's tail takes, and the same run again op by op; both must write
// the same labels and the same table bytes, which must equal GarbleAnd's
// for the uncomplemented AND. The evaluator's run holds each op twice,
// a full EvalBatch pass and a tail.
func TestHalfGatesTruthTables(t *testing.T) {
	h := NewHash()
	ops := []circuit.Op{circuit.AND, circuit.OR, circuit.NAND, circuit.NOR, circuit.AND}
	for trial := 0; trial < 50; trial++ {
		r := RandDelta(CryptoRand)
		// Slots 0 and 1 hold a's labels (false, true), 2 and 3 b's; the
		// outputs go to 4 onwards.
		a0, b0 := RandLabel(CryptoRand), RandLabel(CryptoRand)
		in := []Label{a0, a0.Xor(r), b0, b0.Xor(r)}
		run := &Ands{Base: uint64(trial * 8)}
		for i, op := range ops {
			aInv, bInv, outInv := AndForm(op)
			var inv uint8
			if aInv {
				inv |= AInv
			}
			if bInv {
				inv |= BInv
			}
			if outInv {
				inv |= OutInv
			}
			run.A, run.B = append(run.A, 0), append(run.B, 2)
			run.Out, run.Table = append(run.Out, int32(4+i)), append(run.Table, int32(len(ops)-1-i))
			run.Gate, run.Inv = append(run.Gate, int32(i)), append(run.Inv, inv)
		}
		batched := append(slices.Clone(in), make([]Label, len(ops))...)
		single := slices.Clone(batched)
		tables := make([]byte, len(ops)*TableBytes)
		GarbleAnds(h, r, batched, run, tables)
		alone := make([]byte, len(tables))
		for i := range ops {
			one := &Ands{A: run.A[i : i+1], B: run.B[i : i+1], Out: run.Out[i : i+1], Table: run.Table[i : i+1],
				Gate: run.Gate[i : i+1], Inv: run.Inv[i : i+1], Base: run.Base}
			GarbleAnds(h, r, single, one, alone)
		}
		if !slices.Equal(batched, single) || !bytes.Equal(tables, alone) {
			t.Fatalf("trial %d: the batched garbler pass and the single-gate path disagree", trial)
		}
		c0, tab := GarbleAnd(h, r, a0, b0, run.Base)
		if c0 != batched[4] || TableFromBytes(tables[TableBytes*(len(ops)-1):]) != tab {
			t.Fatalf("trial %d: GarbleAnds' AND differs from GarbleAnd's", trial)
		}
		for _, va := range []int32{0, 1} {
			for _, vb := range []int32{0, 1} {
				// Each op twice, over the active labels for (va, vb).
				ev := &Ands{Base: run.Base}
				for i := range 2 * len(ops) {
					k := i % len(ops)
					ev.A, ev.B = append(ev.A, va), append(ev.B, 2+vb)
					ev.Out, ev.Table = append(ev.Out, int32(4+i)), append(ev.Table, run.Table[k])
					ev.Gate = append(ev.Gate, run.Gate[k])
				}
				labels := append(slices.Clone(in), make([]Label, 2*len(ops))...)
				EvalAnds(h, labels, ev, tables)
				for i := range 2 * len(ops) {
					op := ops[i%len(ops)]
					want := batched[4+i%len(ops)]
					if op.Eval(va == 1, vb == 1) {
						want = want.Xor(r)
					}
					if labels[4+i] != want {
						t.Fatalf("%v(%v,%v): eval label mismatch", op, va, vb)
					}
				}
			}
		}
	}
}
