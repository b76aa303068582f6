package core

import (
	"context"
	"math/rand"
	"testing"

	"arm2gc/internal/build"
	"arm2gc/internal/circuit"
	"arm2gc/internal/circuit/circtest"
	"arm2gc/internal/sim"
)

// TestSkipGateMatchesSim is the central correctness property: on random
// sequential circuits with random public/private inputs, SkipGate decodes
// to the plaintext simulator's outputs and never sends more tables than
// conventional GC, which garbles every non-XOR gate every cycle. Every
// compiled cycle is in wave form (CheckWaves).
func TestSkipGateMatchesSim(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 60; trial++ {
		c, nA, nB := circtest.Random(rng, 80, 10)
		in := sim.Inputs{
			Alice:  circtest.RandBits(rng, nA),
			Bob:    circtest.RandBits(rng, nB),
			Public: circtest.RandBits(rng, c.PublicBits),
		}
		cycles := 1 + rng.Intn(5)
		want := sim.Run(c, in, cycles)
		res, err := RunLocal(context.Background(), c, in, RunOpts{Cycles: cycles, Record: Unbounded})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for cyc := 1; cyc <= res.Trace.NumCycles(); cyc++ {
			if err := CheckWaves(res.Trace.Cycle(cyc)); err != nil {
				t.Fatalf("trial %d, cycle %d: %v", trial, cyc, err)
			}
		}
		for i := range want {
			if res.Outputs[i] != want[i] {
				t.Fatalf("trial %d bit %d: skipgate %v, sim %v", trial, i, res.Outputs[i], want[i])
			}
		}
		// SkipGate never sends more tables than conventional GC.
		convTables := c.Stats().NonXOR * cycles
		if res.Stats.Total.Garbled > convTables {
			t.Fatalf("trial %d: skipgate %d tables > conventional %d",
				trial, res.Stats.Total.Garbled, convTables)
		}
	}
}

// TestAllPublicIsFree: with only public inputs every gate is category i —
// zero garbled tables regardless of circuit shape.
func TestAllPublicIsFree(t *testing.T) {
	b := build.New("pubonly")
	a := b.Input(circuit.Public, "a", 16)
	x := b.Input(circuit.Public, "x", 16)
	b.Output("out", b.MulLow(a, x))
	c := b.MustCompile()

	in := sim.Inputs{Public: sim.UnpackUint(uint64(1234)|uint64(777)<<16, 32)}
	res, err := RunLocal(context.Background(), c, in, RunOpts{Cycles: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Total.Garbled != 0 {
		t.Errorf("public-only circuit garbled %d tables", res.Stats.Total.Garbled)
	}
	if got, want := sim.PackUint(res.Outputs), uint64(1234*777)&0xffff; got != want {
		t.Errorf("output %d, want %d", got, want)
	}
}

// TestIllustrativeMux reproduces the paper's Section 3 example: a MUX
// whose select is public skips the unselected sub-circuit entirely and the
// MUX gates act as wires.
func TestIllustrativeMux(t *testing.T) {
	mk := func() *circuit.Circuit {
		b := build.New("muxsel")
		a := b.Input(circuit.Alice, "a", 8)
		x := b.Input(circuit.Bob, "x", 8)
		sel := b.Input(circuit.Public, "sel", 1)
		f0 := b.Add(a, x)    // 7 non-XOR
		f1 := b.AndBus(a, x) // 8 non-XOR
		b.Output("out", b.MuxBus(sel[0], f1, f0))
		return b.MustCompile()
	}
	c := mk()
	av, xv := uint64(0xa5), uint64(0x3c)
	for _, sel := range []bool{false, true} {
		in := sim.Inputs{
			Alice:  sim.UnpackUint(av, 8),
			Bob:    sim.UnpackUint(xv, 8),
			Public: []bool{sel},
		}
		res, err := RunLocal(context.Background(), c, in, RunOpts{Cycles: 1})
		if err != nil {
			t.Fatal(err)
		}
		want, wantTables := (av+xv)&0xff, 7
		if sel {
			want, wantTables = av&xv, 8
		}
		if got := sim.PackUint(res.Outputs); got != want {
			t.Errorf("sel=%v: output %d, want %d", sel, got, want)
		}
		if res.Stats.Total.Garbled != wantTables {
			t.Errorf("sel=%v: garbled %d tables, want %d (unselected branch + MUX must be skipped)",
				sel, res.Stats.Total.Garbled, wantTables)
		}
	}
}

// sum32Serial builds TinyGarble's bit-serial adder: two 32-bit shift
// registers initialized from the parties' inputs, a single full adder, a
// carry flip-flop, and a 1-bit output streamed over 32 cycles.
func sum32Serial(n int) *circuit.Circuit {
	b := build.New("sumserial")
	aOff := b.AllocInputBits(circuit.Alice, n)
	bOff := b.AllocInputBits(circuit.Bob, n)
	mkInit := func(kind circuit.InitKind, off int) []circuit.Init {
		inits := make([]circuit.Init, n)
		for i := range inits {
			inits[i] = circuit.Init{Kind: kind, Idx: off + i}
		}
		return inits
	}
	ra := b.RegInit("a", mkInit(circuit.InitAlice, aOff))
	rb := b.RegInit("b", mkInit(circuit.InitBob, bOff))
	carry := b.Reg("carry", 1)
	sum, cout := b.FullAdder(ra.Q()[0], rb.Q()[0], carry.Q()[0])
	carry.SetNext(build.Bus{cout})
	ra.SetNext(build.ShrConst(ra.Q(), 1, build.F))
	rb.SetNext(build.ShrConst(rb.Q(), 1, build.F))
	b.Output("sum", build.Bus{sum})
	return b.MustCompile()
}

// TestTable1Sum32 reproduces the paper's Table 1 Sum 32 row exactly:
// 32 non-XOR without SkipGate, 31 with, 1 skipped (the final-cycle carry).
func TestTable1Sum32(t *testing.T) {
	c := sum32Serial(32)
	if got := c.Stats().NonXOR; got != 1 {
		t.Fatalf("serial adder has %d non-XOR gates per cycle, want 1", got)
	}
	av, xv := uint64(0xdeadbeef), uint64(0x12345678)
	in := sim.Inputs{Alice: sim.UnpackUint(av, 32), Bob: sim.UnpackUint(xv, 32)}
	res, err := RunLocal(context.Background(), c, in, RunOpts{Cycles: 32, RecordEveryCycle: true})
	if err != nil {
		t.Fatal(err)
	}
	var got uint64
	for i, bits := range res.PerCycle {
		if bits[0] {
			got |= 1 << uint(i)
		}
	}
	if want := (av + xv) & 0xffffffff; got != want {
		t.Errorf("serial sum = %#x, want %#x", got, want)
	}
	if res.Stats.Total.Garbled != 31 {
		t.Errorf("garbled %d, want 31 (Table 1)", res.Stats.Total.Garbled)
	}
	if res.Stats.Total.Filtered != 1 {
		t.Errorf("filtered %d, want 1 (Table 1 skipped column)", res.Stats.Total.Filtered)
	}
}

// TestSchedulerDeterminism: two schedulers with the same seed and public
// input make identical decisions — the property that lets Alice and Bob
// run SkipGate without exchanging any classification data.
func TestSchedulerDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		c, _, _ := circtest.Random(rng, 60, 8)
		pub := circtest.RandBits(rng, c.PublicBits)
		seed := Seed{1, 2, 3}
		s1 := NewScheduler(c, seed, pub)
		s2 := NewScheduler(c, seed, pub)
		for cyc := 0; cyc < 4; cyc++ {
			final := cyc == 3
			cs1 := s1.Classify(final)
			cs2 := s2.Classify(final)
			if cs1 != cs2 {
				t.Fatalf("trial %d cycle %d: stats diverge: %+v vs %+v", trial, cyc, cs1, cs2)
			}
			for i := range c.Gates {
				if s1.act[i] != s2.act[i] || s1.fan[i] != s2.fan[i] {
					t.Fatalf("trial %d cycle %d gate %d: act/fan diverge", trial, cyc, i)
				}
			}
			s1.Commit()
			s2.Commit()
		}
	}
}

// TestMaterializationInvariant: any gate whose label survives (fan > 0)
// only consumes labels that are themselves materialized.
func TestMaterializationInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 30; trial++ {
		c, _, _ := circtest.Random(rng, 100, 12)
		pub := circtest.RandBits(rng, c.PublicBits)
		s := NewScheduler(c, Seed{}, pub)
		for cyc := 0; cyc < 3; cyc++ {
			s.Classify(cyc == 2)
			materialized := func(w circuit.Wire) bool {
				if s.st[w] != stSecret {
					return false
				}
				gi := c.WireGate(w)
				return gi < 0 || s.fan[gi] > 0
			}
			for i := range c.Gates {
				if s.fan[i] <= 0 {
					continue
				}
				g := &c.Gates[i]
				bad := func(w circuit.Wire) bool {
					// Consumed wires must be secret and materialized.
					return !materialized(w)
				}
				failed := false
				switch s.act[i] {
				case actCopyA, actCopyAInv:
					failed = bad(g.A)
				case actCopyB, actCopyBInv:
					failed = bad(g.B)
				case actCopyS, actCopySInv:
					failed = bad(g.S)
				case actMuxXor:
					failed = bad(g.S) || bad(g.A)
				case actXor:
					failed = bad(g.A) || bad(g.B)
				case actGarble:
					if g.Op == circuit.MUX {
						failed = bad(g.S)
						if s.st[g.A] == stSecret {
							failed = failed || bad(g.A)
						}
						if s.st[g.B] == stSecret {
							failed = failed || bad(g.B)
						}
					} else {
						failed = bad(g.A) || bad(g.B)
					}
				}
				if failed {
					t.Fatalf("trial %d cycle %d gate %d (%v, act %d): consumes dead wire",
						trial, cyc, i, g.Op, s.act[i])
				}
			}
			s.Commit()
		}
	}
}

// TestCountMatchesRunLocal: the schedule-only Count API reports exactly
// the statistics of a full crypto run.
func TestCountMatchesRunLocal(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 15; trial++ {
		c, nA, nB := circtest.Random(rng, 70, 9)
		in := sim.Inputs{
			Alice:  circtest.RandBits(rng, nA),
			Bob:    circtest.RandBits(rng, nB),
			Public: circtest.RandBits(rng, c.PublicBits),
		}
		cycles := 1 + rng.Intn(4)
		res, err := RunLocal(context.Background(), c, in, RunOpts{Cycles: cycles})
		if err != nil {
			t.Fatal(err)
		}
		st, _, err := Count(context.Background(), c, in.Public, CountOpts{Cycles: cycles})
		if err != nil {
			t.Fatal(err)
		}
		if st != res.Stats {
			t.Fatalf("trial %d: Count %+v != RunLocal %+v", trial, st, res.Stats)
		}
	}
}

// TestHaltWire: a circuit that raises a public done flag stops the run.
func TestHaltWire(t *testing.T) {
	b := build.New("halt")
	cnt := b.Reg("cnt", 4)
	inc, _ := b.Inc(cnt.Q())
	cnt.SetNext(inc)
	done := b.Eq(cnt.Q(), build.ConstBus(5, 4))
	b.Output("done", build.Bus{done})
	b.Output("cnt", cnt.Q())
	c := b.MustCompile()

	res, err := RunLocal(context.Background(), c, sim.Inputs{}, RunOpts{Cycles: 100, StopOutput: "done"})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Halted {
		t.Fatal("run did not halt")
	}
	if res.Stats.Cycles != 6 {
		t.Errorf("halted after %d cycles, want 6", res.Stats.Cycles)
	}
}
