package gc

// roundKeys is π's key schedule for the AES-NI passes, expanded once per
// process; nil when the CPU lacks AES-NI and the generic path runs.
var roundKeys = expandFixedKey()

func expandFixedKey() *[176]byte {
	if !cpuHasAES() {
		return nil
	}
	var enc [176]byte
	aesExpandKey((*[16]byte)(fixedKey), &enc)
	return &enc
}

// piXor4 replaces each of four blocks k with π(k) ⊕ k.
func (h *Hash) piXor4(b *[4]Label) {
	if roundKeys == nil {
		h.piXorGeneric(b[:])
		return
	}
	aesPiXor4(roundKeys, b)
}

// piXor2 replaces each of two blocks k with π(k) ⊕ k.
func (h *Hash) piXor2(b *[2]Label) {
	if roundKeys == nil {
		h.piXorGeneric(b[:])
		return
	}
	aesPiXor2(roundKeys, b)
}

// garbleBatches garbles run's ANDs GarbleBatch at a time while a whole
// batch remains, and returns how many it garbled: each batch takes one
// AES-NI pass, which gathers, doubles and tweaks the operand labels and
// finishes the gates in registers. Without AES-NI it garbles none, as
// the generic path gains nothing from a batch.
func (h *Hash) garbleBatches(labels []Label, r Label, run *Ands, tables []byte) int {
	if roundKeys == nil {
		return 0
	}
	n := len(run.A) - len(run.A)%GarbleBatch
	for i := 0; i < n; i += GarbleBatch {
		for j := i; j < i+GarbleBatch; j++ {
			checkAnd(labels, run, j, tables)
			_ = run.Inv[j]
		}
		aesGarbleAnds(roundKeys, &labels[0], &run.A[i], &run.B[i], &run.Out[i], &run.Table[i], &run.Gate[i], &run.Inv[i],
			run.Base, &r, &tables[0])
	}
	return n
}

// evalBatches is garbleBatches for the evaluator, EvalBatch ANDs a pass.
func (h *Hash) evalBatches(labels []Label, run *Ands, tables []byte) int {
	if roundKeys == nil {
		return 0
	}
	n := len(run.A) - len(run.A)%EvalBatch
	for i := 0; i < n; i += EvalBatch {
		for j := i; j < i+EvalBatch; j++ {
			checkAnd(labels, run, j, tables)
		}
		aesEvalAnds(roundKeys, &labels[0], &run.A[i], &run.B[i], &run.Out[i], &run.Table[i], &run.Gate[i], run.Base, &tables[0])
	}
	return n
}

// checkAnd panics, as an index out of range, unless run has an AND i that
// names slots in labels and a table in tables: the AES-NI passes read and
// write them unchecked.
func checkAnd(labels []Label, run *Ands, i int, tables []byte) {
	_, _, _, _ = labels[run.A[i]], labels[run.B[i]], labels[run.Out[i]], run.Gate[i]
	_ = tables[TableBytes*int(run.Table[i]) : TableBytes*(int(run.Table[i])+1)]
}

// cpuHasAES reports CPUID.1:ECX.AES, the AES-NI feature bit.
func cpuHasAES() bool

// aesExpandKey writes the 11 round keys of AES-128 key to enc.
//
//go:noescape
func aesExpandKey(key *[16]byte, enc *[176]byte)

// aesPiXor4 replaces each of four blocks k with AES_enc(k) ⊕ k, the
// round keys enc applied to all four blocks before the next round's.
// A Label's in-memory layout on amd64 is its little-endian bytes, the AES
// block.
//
//go:noescape
func aesPiXor4(enc *[176]byte, b *[4]Label)

// aesPiXor2 is aesPiXor4 for two blocks.
//
//go:noescape
func aesPiXor2(enc *[176]byte, b *[2]Label)

// aesGarbleAnds garbles the two ANDs whose slots, tables, gates and
// complements a, b, out, table, gate and inv point at: it reads each
// operand label straight from labels and doubles and tweaks it in
// registers, hashes H(x, 2·gid), H(x ⊕ R, 2·gid), H(y, 2·gid+1) and
// H(y ⊕ R, 2·gid+1) in one 8-block pass (doubling is linear, so
// 2(x ⊕ R) = 2x ⊕ 2R), and finishes each gate as garbleOne does, writing
// its table to tables and its output label to labels, at indexes the
// caller has bounds checked.
//
//go:noescape
func aesGarbleAnds(enc *[176]byte, labels *Label, a, b, out, table, gate *int32, inv *uint8, base uint64, r *Label, tables *byte)

// aesEvalAnds evaluates the four ANDs whose slots, tables and gates a, b,
// out, table and gate point at: it gathers, doubles and tweaks as
// aesGarbleAnds does, hashes H(x, 2·gid) and H(y, 2·gid+1) of each, and
// finishes each gate as evalOne does, reading its table from tables and
// writing its output label to labels, at indexes the caller has bounds
// checked.
//
//go:noescape
func aesEvalAnds(enc *[176]byte, labels *Label, a, b, out, table, gate *int32, base uint64, tables *byte)
