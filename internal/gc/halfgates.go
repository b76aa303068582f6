package gc

import (
	"encoding/binary"
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

// AndForm maps each AND-class operator onto an AND with optional input and
// output complements: op(a,b) = outInv ⊕ AND(a ⊕ aInv, b ⊕ bInv).
// Complements are free: the garbler offsets the corresponding false label
// by R (Ands.Inv); the evaluator's computation is unchanged (EvalAnd).
func AndForm(op circuit.Op) (aInv, bInv, outInv bool) {
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
	ha0, ha1, hb0, hb1 := h.hash4(a0, a0.Xor(r), b0, b0.Xor(r), 2*gid, 2*gid+1)
	return halfGates(r, a0, b0, ha0, ha1, hb0, hb1)
}

// halfGates garbles an AND from its inputs' false labels and their four
// hashes H(a0), H(a0 ⊕ R) under tweak 2gid and H(b0), H(b0 ⊕ R) under
// 2gid+1. Every garbling path ends here but the AES-NI batch pass, which
// computes the same in registers (GARBFIN in hash_amd64.s).
func halfGates(r, a0, b0, ha0, ha1, hb0, hb1 Label) (Label, Table) {
	// The permute bits select with masks, not branches: they are random,
	// so a branch on them mispredicts half the time.
	ma, mb := a0.mask(), b0.mask()
	// Garbler half gate: computes a ∧ pb.
	tg := ha0.Xor(ha1).Xor(r.and(mb))
	wg := ha0.Xor(tg.and(ma))
	// Evaluator half gate: computes a ∧ (b ⊕ pb).
	hb := hb0.Xor(hb1)
	te := hb.Xor(a0)
	we := hb0.Xor(hb.and(mb))
	return wg.Xor(we), Table{TG: tg, TE: te}
}

// EvalAnd evaluates one half-gates AND with the active input labels.
func EvalAnd(h *Hash, a, b Label, t Table, gid uint64) Label {
	wg, we := h.hash2(a, b, 2*gid, 2*gid+1)
	return evalHalfGates(a, b, t, wg, we)
}

// evalHalfGates evaluates an AND from its active labels, its table and
// their hashes H(a) under tweak 2gid and H(b) under 2gid+1 (in registers
// on the AES-NI batch pass: EVALFIN in hash_amd64.s).
func evalHalfGates(a, b Label, t Table, wg, we Label) Label {
	wg = wg.Xor(t.TG.and(a.mask()))
	we = we.Xor(t.TE.Xor(a).and(b.mask()))
	return wg.Xor(we)
}

// Ands is a run of independent half-gates ANDs, outInv ⊕ AND(a ⊕ aInv,
// b ⊕ bInv), in the struct-of-arrays form a compiled cycle holds them: AND
// i reads the labels in slots A[i] and B[i] of a label array and writes
// its output to slot Out[i]; its table is the Table[i]-th of the frame,
// and its gate id Base + Gate[i], which keys its tweaks 2·gid and
// 2·gid+1. Inv[i] holds its complements, AInv | BInv | OutInv, which only
// the garbler reads. The slices are equally long, and no AND of a run
// reads a slot another writes, so GarbleAnds and EvalAnds may take them
// in any grouping.
type Ands struct {
	A, B, Out, Table, Gate []int32
	Inv                    []uint8
	Base                   uint64
}

// The complement bits of an AND (Ands.Inv).
const (
	AInv   uint8 = 1 << iota // complement the first operand
	BInv                     // complement the second operand
	OutInv                   // complement the output
)

// The ANDs one 8-block hash pass covers: four blocks per garbled gate, two
// per evaluated gate.
const (
	GarbleBatch = 2
	EvalBatch   = 4
)

// GarbleAnds garbles run: it reads each AND's false input labels from
// labels, writes its output label there and its table into tables at its
// index. On AES-NI each GarbleBatch ANDs take one 8-block pass
// (garbleBatches); the rest, and every AND elsewhere, one gate at a time.
func GarbleAnds(h *Hash, r Label, labels []Label, run *Ands, tables []byte) {
	for i := h.garbleBatches(labels, r, run, tables); i < len(run.A); i++ {
		a0, b0, gid := labels[run.A[i]], labels[run.B[i]], run.Base+uint64(run.Gate[i])
		ha0, ha1, hb0, hb1 := h.hash4(a0, a0.Xor(r), b0, b0.Xor(r), 2*gid, 2*gid+1)
		garbleOne(r, labels, run, i, tables, ha0, ha1, hb0, hb1)
	}
}

// garbleOne finishes AND i of run from the hashes of its operand labels as
// they sit in their slots, before complements: a complemented operand's
// false label is the slot's label ⊕ R, so its two hashes trade places.
func garbleOne(r Label, labels []Label, run *Ands, i int, tables []byte, ha0, ha1, hb0, hb1 Label) {
	a0, b0, inv := labels[run.A[i]], labels[run.B[i]], run.Inv[i]
	if inv&AInv != 0 {
		a0, ha0, ha1 = a0.Xor(r), ha1, ha0
	}
	if inv&BInv != 0 {
		b0, hb0, hb1 = b0.Xor(r), hb1, hb0
	}
	c0, t := halfGates(r, a0, b0, ha0, ha1, hb0, hb1)
	if inv&OutInv != 0 {
		c0 = c0.Xor(r)
	}
	labels[run.Out[i]] = c0
	t.Put(tables[TableBytes*int(run.Table[i]):])
}

// EvalAnds evaluates run with the active labels in labels, reading each
// AND's table from tables at its index. On AES-NI each EvalBatch ANDs
// take one 8-block pass (evalBatches); the rest, and every AND elsewhere,
// one gate at a time.
func EvalAnds(h *Hash, labels []Label, run *Ands, tables []byte) {
	for i := h.evalBatches(labels, run, tables); i < len(run.A); i++ {
		gid := run.Base + uint64(run.Gate[i])
		wg, we := h.hash2(labels[run.A[i]], labels[run.B[i]], 2*gid, 2*gid+1)
		evalOne(labels, run, i, tables, wg, we)
	}
}

// evalOne finishes AND i of run from the hashes of its two active labels.
func evalOne(labels []Label, run *Ands, i int, tables []byte, wg, we Label) {
	t := TableFromBytes(tables[TableBytes*int(run.Table[i]):])
	labels[run.Out[i]] = evalHalfGates(labels[run.A[i]], labels[run.B[i]], t, wg, we)
}

// Put writes the table's wire form, TG then TE little-endian, to the
// first TableBytes bytes of b.
func (t Table) Put(b []byte) {
	b = b[:TableBytes]
	binary.LittleEndian.PutUint64(b[0:], t.TG.Lo)
	binary.LittleEndian.PutUint64(b[8:], t.TG.Hi)
	binary.LittleEndian.PutUint64(b[16:], t.TE.Lo)
	binary.LittleEndian.PutUint64(b[24:], t.TE.Hi)
}

// TableFromBytes reads a table's wire form from the first TableBytes
// bytes of b.
func TableFromBytes(b []byte) Table {
	b = b[:TableBytes]
	return Table{TG: LabelFromBytes(b[0:]), TE: LabelFromBytes(b[16:])}
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
