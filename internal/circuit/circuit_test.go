package circuit

import (
	"math/rand"
	"testing"
)

// tiny builds a hand-rolled valid circuit:
//
//	ports: a (Alice, 2 bits), p (Public, 1 bit)
//	dff0:  init zero, D = gate1
//	gate0: AND(a0, a1)    gate1: XOR(gate0, p0)    gate2: MUX(p0; a0, q0)
func tiny() *Circuit {
	c := &Circuit{Name: "tiny", PortBase: 2}
	c.Ports = []Port{
		{Name: "a", Owner: Alice, Base: 2, Bits: 2, Off: 0},
		{Name: "p", Owner: Public, Base: 4, Bits: 1, Off: 0},
	}
	c.DFFBase = 5
	c.GateBase = 6
	c.Gates = []Gate{
		{Op: AND, A: 2, B: 3},
		{Op: XOR, A: 6, B: 4},
		{Op: MUX, A: 2, B: 5, S: 4},
	}
	c.DFFs = []DFF{{D: 7, Init: Init{Kind: InitZero}}}
	c.Outputs = []Output{{Name: "o", Wires: []Wire{8, 5}}}
	c.AliceBits = 2
	c.PublicBits = 1
	return c
}

func TestValidateAccepts(t *testing.T) {
	if err := tiny().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejects(t *testing.T) {
	break1 := func(f func(c *Circuit)) error {
		c := tiny()
		f(c)
		return c.Validate()
	}
	cases := map[string]func(c *Circuit){
		"gate reads later wire": func(c *Circuit) { c.Gates[0].A = 8 },
		"gate reads own output": func(c *Circuit) { c.Gates[0].A = 6 },
		"mux select later":      func(c *Circuit) { c.Gates[2].S = 8 },
		"dff D out of range":    func(c *Circuit) { c.DFFs[0].D = 99 },
		"output out of range":   func(c *Circuit) { c.Outputs[0].Wires[0] = -1 },
		"bad op":                func(c *Circuit) { c.Gates[0].Op = numOps },
		"port base gap":         func(c *Circuit) { c.Ports[1].Base = 9 },
		"init index out of range": func(c *Circuit) {
			c.DFFs[0].Init = Init{Kind: InitAlice, Idx: 5}
		},
	}
	for name, f := range cases {
		if err := break1(f); err == nil {
			t.Errorf("%s: Validate accepted a broken circuit", name)
		}
	}
}

func TestStatsCountsMux(t *testing.T) {
	st := tiny().Stats()
	if st.NonXOR != 2 { // AND + MUX
		t.Errorf("NonXOR = %d, want 2", st.NonXOR)
	}
	if st.XOR != 1 {
		t.Errorf("XOR = %d, want 1", st.XOR)
	}
}

func TestFanout(t *testing.T) {
	c := tiny()
	withDFF := c.Fanout(true)
	// gate0 feeds gate1 (1); gate1 feeds the DFF and, through output wire 5
	// resolving Q→D, the output (2); gate2 feeds output wire 8 (1).
	if withDFF[0] != 1 || withDFF[1] != 2 || withDFF[2] != 1 {
		t.Errorf("fanout with DFF = %v", withDFF)
	}
	noDFF := c.Fanout(false)
	// Final cycle: DFF consumer vanishes but output wire 5 (the Q) resolves
	// to D = gate1, keeping it alive.
	if noDFF[1] != 1 {
		t.Errorf("final-cycle fanout of gate1 = %d, want 1 (kept by resolved output)", noDFF[1])
	}
}

func TestResolveOutput(t *testing.T) {
	c := tiny()
	if got := c.ResolveOutput(5); got != 7 {
		t.Errorf("ResolveOutput(Q) = %d, want 7 (the D wire)", got)
	}
	if got := c.ResolveOutput(8); got != 8 {
		t.Errorf("ResolveOutput(gate) = %d, want 8", got)
	}
}

func TestHashSensitivity(t *testing.T) {
	base := tiny().Hash()
	mutations := []func(c *Circuit){
		func(c *Circuit) { c.Gates[0].Op = OR },
		func(c *Circuit) { c.Gates[2].S = 3 },
		func(c *Circuit) { c.DFFs[0].Init = Init{Kind: InitOne} },
		func(c *Circuit) { c.Outputs[0].Name = "x" },
		func(c *Circuit) { c.Ports[0].Owner = Bob },
	}
	for i, f := range mutations {
		c := tiny()
		f(c)
		if c.Hash() == base {
			t.Errorf("mutation %d did not change the hash", i)
		}
	}
}

// TestHashComputedOnce: the digest of a frozen circuit is taken on the
// first call and served from the memo afterwards. The only way to see
// that from outside is to break the rule the memo rests on: edit the
// netlist after the first Hash, and the answer must not follow the edit.
func TestHashComputedOnce(t *testing.T) {
	c := tiny()
	first := c.Hash()
	if first != c.computeHash() {
		t.Fatal("memoized hash differs from a fresh digest of the same netlist")
	}
	c.Gates[0].Op = OR
	if c.computeHash() == first {
		t.Fatal("the edit is invisible to the digest: the check below proves nothing")
	}
	if c.Hash() != first {
		t.Error("second Hash call digested the netlist again")
	}
}

func TestOpEval(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		a, b := rng.Intn(2) == 1, rng.Intn(2) == 1
		checks := map[Op]bool{
			AND: a && b, OR: a || b, NAND: !(a && b), NOR: !(a || b),
			XOR: a != b, XNOR: a == b, NOT: !a, BUF: a,
		}
		for op, want := range checks {
			if op.Eval(a, b) != want {
				t.Fatalf("%v(%v,%v) != %v", op, a, b, want)
			}
		}
		s := rng.Intn(2) == 1
		want := a
		if s {
			want = b
		}
		if EvalMux(s, a, b) != want {
			t.Fatalf("EvalMux(%v,%v,%v) != %v", s, a, b, want)
		}
	}
}

func TestOpClassification(t *testing.T) {
	free := []Op{XOR, XNOR, NOT, BUF}
	costly := []Op{AND, OR, NAND, NOR, MUX}
	for _, op := range free {
		if !op.IsFree() {
			t.Errorf("%v should be free", op)
		}
	}
	for _, op := range costly {
		if op.IsFree() {
			t.Errorf("%v should not be free", op)
		}
	}
	if !NOT.IsUnary() || !BUF.IsUnary() || AND.IsUnary() || MUX.IsUnary() {
		t.Error("unary classification wrong")
	}
}
