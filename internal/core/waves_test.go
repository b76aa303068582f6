package core

import (
	"fmt"
	"slices"
)

// CheckWaves returns an error unless compiled cycle ct is in wave form,
// walking its ops in the order the kernels run them:
//   - no op of a garble run reads a slot the same run writes;
//   - within a garble run every MUX follows every AND, as the kernels
//     hand a run's ANDs to the batched hash as one run (CycleTrace.muxes);
//   - every op reads only slots written earlier in the cycle, or slots the
//     cycle does not write, and no slot is written twice;
//   - garbSlot is a permutation of 0..n−1, and garbGate ascends in slot
//     order, so the tables go on the wire in gate order.
func CheckWaves(ct *CycleTrace) error {
	writes := map[int32]bool{}
	for _, w := range ct.copyOut {
		writes[w] = true
	}
	for _, w := range ct.garbOut {
		if writes[w] {
			return fmt.Errorf("slot %d written twice", w)
		}
		writes[w] = true
	}
	if len(writes) != len(ct.copyOut)+len(ct.garbOut) {
		return fmt.Errorf("a copy writes a slot twice")
	}
	done := map[int32]bool{}
	read := func(op string, i int, w int32) error {
		if writes[w] && !done[w] {
			return fmt.Errorf("%s op %d reads slot %d before the cycle writes it", op, i, w)
		}
		return nil
	}
	ci, gi := 0, 0
	for k, seg := range ct.segs {
		for end := ci + int(seg.copies); ci < end; ci++ {
			ins := []int32{ct.copyA[ci]}
			if ct.copyAct[ci] != topCopyInv {
				ins = append(ins, ct.copyB[ci])
			}
			for _, w := range ins {
				if err := read("copy", ci, w); err != nil {
					return err
				}
			}
			done[ct.copyOut[ci]] = true
		}
		run := map[int32]bool{}
		for i := gi; i < gi+int(seg.garbles); i++ {
			run[ct.garbOut[i]] = true
		}
		mux := false
		for end := gi + int(seg.garbles); gi < end; gi++ {
			ins := []int32{ct.garbA[gi], ct.garbB[gi]}
			if ct.garbKind[gi] == tgMux {
				ins = append(ins, ct.garbS[gi])
				mux = true
			} else if mux {
				return fmt.Errorf("garbled op %d of wave %d is an AND after a MUX of its run", gi, k)
			}
			for _, w := range ins {
				if run[w] {
					return fmt.Errorf("garbled op %d of wave %d reads slot %d, which its own run writes", gi, k, w)
				}
				if err := read("garbled", gi, w); err != nil {
					return err
				}
			}
		}
		for w := range run {
			done[w] = true
		}
	}
	if ci != len(ct.copyAct) || gi != len(ct.garbKind) {
		return fmt.Errorf("the waves cover %d of %d copies and %d of %d garbled ops", ci, len(ct.copyAct), gi, len(ct.garbKind))
	}
	gates := make([]int32, len(ct.garbSlot))
	seen := make([]bool, len(ct.garbSlot))
	for i, slot := range ct.garbSlot {
		if slot < 0 || int(slot) >= len(seen) || seen[slot] {
			return fmt.Errorf("table slots %v are not a permutation", ct.garbSlot)
		}
		seen[slot] = true
		gates[slot] = ct.garbGate[i]
	}
	if !slices.IsSorted(gates) {
		return fmt.Errorf("gates in table-slot order %v do not ascend", gates)
	}
	return nil
}

// NumWaves returns how many waves compiled cycle ct runs in.
func NumWaves(ct *CycleTrace) int { return len(ct.segs) }
