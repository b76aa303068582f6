package core

import (
	"fmt"
	"math/rand"
	"testing"

	"arm2gc/internal/circuit"
	"arm2gc/internal/circuit/circtest"
	"arm2gc/internal/sim"
)

// TestWireLevelEquivalence checks, wire by wire and cycle by cycle, that
// SkipGate's classification and labels agree with the plaintext simulator:
// public wires carry the true value, and every materialized secret label
// decodes (against Alice's pair) to the true value. This is much stronger
// than comparing outputs: it catches miscategorized gates whose errors
// would cancel downstream.
func TestWireLevelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(1701))
	for trial := 0; trial < 40; trial++ {
		c, nA, nB := circtest.Random(rng, 90, 12)
		in := sim.Inputs{
			Alice:  circtest.RandBits(rng, nA),
			Bob:    circtest.RandBits(rng, nB),
			Public: circtest.RandBits(rng, c.PublicBits),
		}
		diagnose(t, c, in, 1+rng.Intn(5), rng)
	}
}

// diagnose compares every wire's plaintext value against the SkipGate
// state/decoded label, cycle by cycle. A secret wire's label is read from
// the slot it lives in, which is an upstream wire's for a plain
// passthrough.
func diagnose(t *testing.T, c *circuit.Circuit, in sim.Inputs, cycles int, rng *rand.Rand) {
	t.Helper()
	s := NewScheduler(c, Seed{}, in.Public)
	g := NewGarbler(s, gcRand{r: rng})
	e := NewEvaluator(s)
	pairs := g.BobPairs()
	chosen := make([]FP, len(pairs))
	for i := range pairs {
		if in.Bit(circuit.Bob, i) {
			chosen[i] = pairs[i][1]
		} else {
			chosen[i] = pairs[i][0]
		}
	}
	if err := e.SetInputs(g.AliceActiveLabels(in.Alice), chosen); err != nil {
		t.Fatal(err)
	}
	ps := sim.New(c, in)
	for cyc := 1; cyc <= cycles; cyc++ {
		s.Classify(cyc == cycles)
		ts := g.GarbleCycle(nil)
		if _, err := e.EvalCycle(ts); err != nil {
			t.Fatal(err)
		}
		ps.Step()
		for w := 0; w < c.NumWires(); w++ {
			wire := circuit.Wire(w)
			if c.WireDFF(wire) >= 0 {
				// Q wires: plaintext already post-copy, labels pre-copy;
				// their consistency is established transitively through D.
				continue
			}
			truth := ps.Wire(wire)
			if v, pub := s.WireState(wire); pub {
				if v != truth {
					gi := c.WireGate(wire)
					var detail string
					if gi >= 0 {
						g := c.Gates[gi]
						detail = describeGate(t, s, ps, c, gi)
						_ = g
					}
					t.Fatalf("cycle %d wire %d: public %v, truth %v\n%s", cyc, w, v, truth, detail)
				}
				continue
			}
			gi := c.WireGate(wire)
			if gi >= 0 && s.fan[gi] <= 0 {
				continue // dead: label intentionally not materialized
			}
			slot := s.LabelSlot(wire)
			if slot < 0 {
				continue // read only by held flip-flops: never compiled, never named
			}
			x := e.Active(slot)
			switch x {
			case g.X0(slot):
				if truth {
					t.Fatalf("cycle %d wire %d (act %d): decodes 0, truth 1", cyc, w, actOf(s, gi))
				}
			case g.X0(slot).Xor(g.R):
				if !truth {
					t.Fatalf("cycle %d wire %d (act %d): decodes 1, truth 0", cyc, w, actOf(s, gi))
				}
			default:
				t.Fatalf("cycle %d wire %d (act %d): label matches neither X0 nor X1", cyc, w, actOf(s, gi))
			}
		}
		g.CopyDFFs()
		e.CopyDFFs()
		s.Commit()
	}
}

func describeGate(t *testing.T, s *Scheduler, ps *sim.Sim, c *circuit.Circuit, gi int) string {
	g := c.Gates[gi]
	desc := func(w circuit.Wire) string {
		v, pub := s.WireState(w)
		return fmt.Sprintf("w%d[st=%v/%v truth=%v fp=%v]", w, pub, v, ps.Wire(w), s.fp[w])
	}
	out := fmt.Sprintf("gate %d %v act=%d fan=%d\n  A=%s\n  B=%s", gi, g.Op, s.act[gi], s.fan[gi], desc(g.A), desc(g.B))
	if g.Op == circuit.MUX {
		out += "\n  S=" + desc(g.S)
	}
	return out
}

func actOf(s *Scheduler, gi int) int {
	if gi < 0 {
		return -1
	}
	return int(s.act[gi])
}

// gcRand adapts math/rand to io.Reader for deterministic label draws.
type gcRand struct{ r *rand.Rand }

func (g gcRand) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(g.r.Intn(256))
	}
	return len(p), nil
}
