package gc

import (
	"fmt"

	"arm2gc/internal/circuit"
)

// Table is one garbled gate: the two half-gate ciphertexts (TG, TE).
// With free-XOR + half gates, every non-XOR 2-input gate costs exactly one
// Table (2·128 bits) of communication.
type Table struct {
	TG, TE Label
}

// TableBytes is the wire size of one garbled table.
const TableBytes = 32

// andForm maps each AND-class operator onto an AND with optional input and
// output complements: op(a,b) = outInv ⊕ AND(a ⊕ aInv, b ⊕ bInv).
// Complements are free: the garbler offsets the corresponding false label
// by R; the evaluator's computation is unchanged.
func andForm(op circuit.Op) (aInv, bInv, outInv bool) {
	switch op {
	case circuit.AND:
		return false, false, false
	case circuit.NAND:
		return false, false, true
	case circuit.OR:
		return true, true, true // a∨b = ¬(¬a ∧ ¬b)
	case circuit.NOR:
		return true, true, false
	}
	panic(fmt.Sprintf("gc: %v is not an AND-class op", op))
}

// GarbleAnd garbles one AND gate with the half-gates construction.
// a0 and b0 are the false labels of the inputs, r the global offset, gid
// the gate's unique index (two hash tweaks 2gid and 2gid+1 are consumed).
// It returns the output false label and the table.
func GarbleAnd(h *Hash, r Label, a0, b0 Label, gid uint64) (Label, Table) {
	pa := a0.Bit()
	pb := b0.Bit()
	a1 := a0.Xor(r)
	b1 := b0.Xor(r)
	j0 := 2 * gid
	j1 := 2*gid + 1

	ha0, ha1, hb0, hb1 := h.hash4(a0, a1, b0, b1, j0, j1)

	// Garbler half gate: computes a ∧ pb.
	tg := ha0.Xor(ha1)
	if pb {
		tg = tg.Xor(r)
	}
	wg := ha0
	if pa {
		wg = wg.Xor(tg)
	}
	// Evaluator half gate: computes a ∧ (b ⊕ pb).
	te := hb0.Xor(hb1).Xor(a0)
	we := hb0
	if pb {
		we = we.Xor(te.Xor(a0))
	}
	return wg.Xor(we), Table{TG: tg, TE: te}
}

// EvalAnd evaluates one half-gates AND with the active input labels.
func EvalAnd(h *Hash, a, b Label, t Table, gid uint64) Label {
	j0 := 2 * gid
	j1 := 2*gid + 1
	wg, we := h.hash2(a, b, j0, j1)
	if a.Bit() {
		wg = wg.Xor(t.TG)
	}
	if b.Bit() {
		we = we.Xor(t.TE.Xor(a))
	}
	return wg.Xor(we)
}

// GarbleAndInv garbles outInv ⊕ AND(a ⊕ aInv, b ⊕ bInv): an AND gate with
// complemented terminals. Complements are free — they only shift the
// garbler's false labels by R; evaluation is plain EvalAnd.
func GarbleAndInv(h *Hash, r Label, a0, b0 Label, gid uint64, aInv, bInv, outInv bool) (Label, Table) {
	if aInv {
		a0 = a0.Xor(r)
	}
	if bInv {
		b0 = b0.Xor(r)
	}
	c0, t := GarbleAnd(h, r, a0, b0, gid)
	if outInv {
		c0 = c0.Xor(r)
	}
	return c0, t
}

// GarbleGate garbles any AND-class gate (AND/OR/NAND/NOR) by reducing it to
// an AND with complemented terminals.
func GarbleGate(h *Hash, r Label, op circuit.Op, a0, b0 Label, gid uint64) (Label, Table) {
	aInv, bInv, outInv := andForm(op)
	return GarbleAndInv(h, r, a0, b0, gid, aInv, bInv, outInv)
}

// GarbleMux garbles the atomic multiplexer out = S ? B : A as
// A ⊕ AND(S, A⊕B): one table.
func GarbleMux(h *Hash, r Label, s0, a0, b0 Label, gid uint64) (Label, Table) {
	c0, t := GarbleAnd(h, r, s0, a0.Xor(b0), gid)
	return c0.Xor(a0), t
}

// EvalMux evaluates a garbled multiplexer.
func EvalMux(h *Hash, s, a, b Label, t Table, gid uint64) Label {
	return EvalAnd(h, s, a.Xor(b), t, gid).Xor(a)
}

// EvalGate evaluates any AND-class gate garbled by GarbleGate. The
// complements live entirely on the garbler's side, so evaluation is plain
// EvalAnd.
func EvalGate(h *Hash, op circuit.Op, a, b Label, t Table, gid uint64) Label {
	if op != circuit.AND && op != circuit.OR && op != circuit.NAND && op != circuit.NOR {
		panic(fmt.Sprintf("gc: %v is not an AND-class op", op))
	}
	return EvalAnd(h, a, b, t, gid)
}
