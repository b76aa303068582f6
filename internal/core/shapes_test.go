package core

import (
	"crypto/sha256"

	"arm2gc/internal/circuit"
)

// ClassifyShapes classifies cycles cycles of c under public input pub and
// counts what would decide between the two ways of making Classify itself
// cheaper:
//
//   - dirty: gate visits with an input whose state or fingerprint differs
//     from the previous cycle's (every visit of the first cycle counts) —
//     the share a dirty-gate worklist would still have to walk;
//   - dffStates: distinct flip-flop state vectors (public 0, public 1 or
//     secret, per flip-flop) at the start of a cycle;
//   - actions: distinct per-gate action vectors — the cycle shapes a memo
//     of classified cycles would have to hold.
//
// visits is cycles × gates, the denominator of dirty.
func ClassifyShapes(c *circuit.Circuit, pub []bool, cycles int) (visits, dirty, dffStates, actions int) {
	s := NewScheduler(c, Seed{}, pub)
	prevSt := make([]uint8, len(s.st))
	prevFP := make([]FP, len(s.fp))
	changed := func(w circuit.Wire) bool {
		return s.st[w] != prevSt[w] || s.st[w] == stSecret && s.fp[w] != prevFP[w]
	}
	q := make([]byte, len(c.DFFs))
	seenDFF := make(map[[32]byte]bool)
	seenAct := make(map[[32]byte]bool)
	for cyc := 1; cyc <= cycles; cyc++ {
		if cyc > 1 {
			s.Commit()
		}
		for i := range c.DFFs {
			q[i] = s.st[c.QWire(i)]
		}
		seenDFF[sha256.Sum256(q)] = true
		s.Classify(cyc == cycles)
		for i := range c.Gates {
			g := &c.Gates[i]
			visits++
			switch {
			case cyc == 1, changed(g.A):
			case g.Op.IsUnary():
				continue
			case changed(g.B), g.Op == circuit.MUX && changed(g.S):
			default:
				continue
			}
			dirty++
		}
		copy(prevSt, s.st)
		copy(prevFP, s.fp)
		seenAct[sha256.Sum256(s.act)] = true
	}
	return visits, dirty, len(seenDFF), len(seenAct)
}
