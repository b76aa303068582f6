package gc

import (
	"crypto/aes"
	"math/rand"
	"testing"
	"testing/quick"

	"arm2gc/internal/build"
	"arm2gc/internal/circuit"
	"arm2gc/internal/circuit/circtest"
	"arm2gc/internal/sim"
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

// TestHalfGatesTruthTables garbles each AND-class op and checks all four
// input combinations decode to the op's truth table.
func TestHalfGatesTruthTables(t *testing.T) {
	h := NewHash()
	ops := []circuit.Op{circuit.AND, circuit.OR, circuit.NAND, circuit.NOR}
	for trial := 0; trial < 50; trial++ {
		r := RandDelta(CryptoRand)
		a0 := RandLabel(CryptoRand)
		b0 := RandLabel(CryptoRand)
		for _, op := range ops {
			gid := uint64(trial*4) + uint64(op)
			c0, tab := GarbleGate(h, r, op, a0, b0, gid)
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
					got := EvalGate(h, op, a, b, tab, gid)
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

// runConventional executes the full conventional protocol in process and
// returns decoded outputs after the given number of cycles.
func runConventional(t *testing.T, c *circuit.Circuit, in sim.Inputs, cycles int) []bool {
	t.Helper()
	g := NewGarbler(c, CryptoRand)
	e := NewEvaluator(c)

	// OT is simulated: hand Bob his chosen labels directly.
	pairs := g.BobPairs()
	chosen := make([]Label, len(pairs))
	for i := range pairs {
		if in.Bit(circuit.Bob, i) {
			chosen[i] = pairs[i][1]
		} else {
			chosen[i] = pairs[i][0]
		}
	}
	if err := e.SetInitLabels(g.ActiveInitLabels(in.Public, in.Alice), chosen); err != nil {
		t.Fatal(err)
	}
	for cyc := 0; cyc < cycles; cyc++ {
		ts := g.GarbleCycle(nil)
		rest, err := e.EvalCycle(ts)
		if err != nil {
			t.Fatal(err)
		}
		if len(rest) != 0 {
			t.Fatalf("cycle %d: %d tables left over", cyc, len(rest))
		}
	}
	ws := c.OutputWires()
	return e.Decode(ws, g.DecodeBits(ws))
}

func TestConventionalAdder(t *testing.T) {
	b := build.New("adder")
	a := b.Input(circuit.Alice, "a", 16)
	x := b.Input(circuit.Bob, "x", 16)
	sum, cout := b.AddCarry(a, x, build.F)
	b.Output("sum", append(sum, cout))
	c := b.MustCompile()

	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20; i++ {
		av := uint64(rng.Uint32() & 0xffff)
		xv := uint64(rng.Uint32() & 0xffff)
		in := sim.Inputs{Alice: sim.UnpackUint(av, 16), Bob: sim.UnpackUint(xv, 16)}
		got := sim.PackUint(runConventional(t, c, in, 1))
		if got != av+xv {
			t.Fatalf("garbled add(%d,%d) = %d, want %d", av, xv, got, av+xv)
		}
	}
}

func TestConventionalSequential(t *testing.T) {
	// Accumulator: acc += alice_in XOR bob_in each cycle via DFF feedback,
	// initialized from Alice and Bob memory bits.
	b := build.New("accum")
	aOff := b.AllocInputBits(circuit.Alice, 8)
	bOff := b.AllocInputBits(circuit.Bob, 8)
	inits := make([]circuit.Init, 8)
	for i := range inits {
		inits[i] = circuit.Init{Kind: circuit.InitAlice, Idx: aOff + i}
	}
	ra := b.RegInit("ra", inits)
	for i := range inits {
		inits[i] = circuit.Init{Kind: circuit.InitBob, Idx: bOff + i}
	}
	rb := b.RegInit("rb", inits)
	acc := b.Reg("acc", 8)
	acc.SetNext(b.Add(acc.Q(), b.XorBus(ra.Q(), rb.Q())))
	ra.SetNext(ra.Q())
	rb.SetNext(rb.Q())
	b.Output("acc", acc.Q())
	c := b.MustCompile()

	const cycles = 5
	av, bv := uint64(0x5a), uint64(0x33)
	in := sim.Inputs{Alice: sim.UnpackUint(av, 8), Bob: sim.UnpackUint(bv, 8)}
	want := sim.PackUint(sim.Run(c, in, cycles))
	got := sim.PackUint(runConventional(t, c, in, cycles))
	if got != want {
		t.Fatalf("sequential garbled = %d, want %d (plaintext %d)", got, want, ((av^bv)*(cycles-1))&0xff)
	}
}

// TestConventionalRandomCircuits cross-checks garbled evaluation against
// the plaintext simulator on randomly generated sequential circuits.
func TestConventionalRandomCircuits(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		c, nAlice, nBob := circtest.Random(rng, 60, 8)
		in := sim.Inputs{
			Alice:  randBits(rng, nAlice),
			Bob:    randBits(rng, nBob),
			Public: randBits(rng, c.PublicBits),
		}
		cycles := 1 + rng.Intn(4)
		want := sim.Run(c, in, cycles)
		got := runConventional(t, c, in, cycles)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: output bit %d = %v, want %v", trial, i, got[i], want[i])
			}
		}
	}
}

func randBits(rng *rand.Rand, n int) []bool {
	b := make([]bool, n)
	for i := range b {
		b[i] = rng.Intn(2) == 1
	}
	return b
}
