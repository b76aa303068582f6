package core

// Cross-cycle SkipGate. Classify decides every gate within its cycle, so
// it garbles a gate whose label reaches only flip-flops that are
// overwritten before anything reads them — the Z-flag OR-tree of a
// flag-setting instruction whose flags the next one sets again is the
// common case. A compiled trace is a straight-line program over label
// slots, so one backward liveness pass finds every such op: prune starts
// from the secret output slots and walks the cycles in reverse, through
// each cycle's parallel flip-flop commit and then its ops in reverse wave
// order, dropping every op whose output slot nothing later reads.
//
// The dropped set is a function of the trace, which is a function of
// public data alone, so both parties derive it and nothing new crosses the
// wire. Each cycle is compacted in place: its table slots are renumbered
// densely in emission order and its gate indices are kept, so every table
// that survives is byte-identical to the one the unpruned cycle puts on
// the wire for that gate. Flip-flop commits are kept whole; a commit into
// a dead flip-flop moves a label nothing reads.

// pruner holds the pass's scratch across cycles.
type pruner struct {
	live         []bool  // per slot: a later op, commit or output reads it
	keepC, keepG []bool  // per op of the cycle being pruned: it stays
	dropC, dropG int     // ops of the cycle being pruned that go
	commit       []bool  // per dirty flip-flop: its Q is live after the commit
	rank         []int32 // per table slot: its slot after the pass, or -1
}

// prune runs the pass over a finished trace (TraceRecorder.Finish), adding
// each cycle's dropped tables to its Dropped and the trace's statistics.
func (t *Trace) prune() {
	t.walk(func(_ int, ct *CycleTrace, p *pruner) {
		if p.dropC > 0 || p.dropG > 0 {
			p.compact(ct)
		}
		ct.Dropped = p.dropG
		t.stats.Dropped += p.dropG
	})
}

// walk runs the backward pass over t, calling visit after each cycle's ops
// are marked (its index, the cycle, the pruner holding its keep flags and
// the live set before its ops). The final cycle's commit never runs, so
// the walk starts after it, from the secret output slots.
func (t *Trace) walk(visit func(c int, ct *CycleTrace, p *pruner)) {
	p := &pruner{live: make([]bool, t.width)}
	for i, slot := range t.outSrc {
		if !t.outPub[i] {
			p.live[slot] = true
		}
	}
	for c := len(t.cycles) - 1; c >= 0; c-- {
		ct := t.cycles[c]
		if c < len(t.cycles)-1 {
			p.throughCommit(ct)
		}
		p.cycle(ct)
		visit(c, ct, p)
	}
}

// throughCommit moves the live set from after ct's flip-flop commit to
// before it. The commit is parallel — a D may be another flip-flop's Q —
// so every Q it writes is killed before any D it reads is made live.
func (p *pruner) throughCommit(ct *CycleTrace) {
	live := p.live
	p.commit = grow(p.commit, len(ct.dirty))
	for k, q := range ct.dirty {
		p.commit[k] = live[q]
		live[q] = false
	}
	for k, src := range ct.dirtySrc {
		if p.commit[k] {
			live[src] = true
		}
	}
}

// cycle moves the live set from after ct's ops to before them, marking
// which ops stay in keepC and keepG and counting those that go in dropC
// and dropG.
func (p *pruner) cycle(ct *CycleTrace) {
	live := p.live
	ci, gi := len(ct.copyAct), len(ct.garbKind)
	keepC, keepG := grow(p.keepC, ci), grow(p.keepG, gi)
	p.keepC, p.keepG, p.dropC, p.dropG = keepC, keepG, 0, 0
	for s := len(ct.segs) - 1; s >= 0; s-- {
		// A wave's garbled ops read nothing another of them writes, and
		// follow its copies.
		for end := gi - int(ct.segs[s].garbles); gi > end; {
			gi--
			out := ct.garbOut[gi]
			if keepG[gi] = live[out]; !keepG[gi] {
				p.dropG++
				continue
			}
			live[out] = false
			live[ct.garbA[gi]], live[ct.garbB[gi]] = true, true
			if ct.garbKind[gi] == tgMux {
				live[ct.garbS[gi]] = true
			}
		}
		for end := ci - int(ct.segs[s].copies); ci > end; {
			ci--
			out := ct.copyOut[ci]
			if keepC[ci] = live[out]; !keepC[ci] {
				p.dropC++
				continue
			}
			live[out] = false
			live[ct.copyA[ci]] = true
			if ct.copyAct[ci] != topCopyInv {
				live[ct.copyB[ci]] = true
			}
		}
	}
}

// compact keeps only the ops keepC and keepG mark. A wave left empty goes,
// and one left without garbled ops merges into the next, whose copies
// follow its own. Table slots keep their order and close up.
func (p *pruner) compact(ct *CycleTrace) {
	keepC, keepG := p.keepC, p.keepG
	rank := grow(p.rank, len(keepG))
	p.rank = rank
	for t := range rank {
		rank[t] = -1
	}
	for i, k := range keepG {
		if k {
			rank[ct.garbSlot[i]] = 0
		}
	}
	var next int32
	for t, r := range rank {
		if r == 0 {
			rank[t] = next
			next++
		}
	}

	segs := ct.segs[:0]
	ci, gi := 0, 0
	for _, seg := range ct.segs {
		var k traceSeg
		for end := ci + int(seg.copies); ci < end; ci++ {
			if keepC[ci] {
				k.copies++
			}
		}
		for end := gi + int(seg.garbles); gi < end; gi++ {
			if keepG[gi] {
				k.garbles++
			}
		}
		switch {
		case k == traceSeg{}:
		case len(segs) > 0 && segs[len(segs)-1].garbles == 0:
			segs[len(segs)-1].copies += k.copies
			segs[len(segs)-1].garbles = k.garbles
		default:
			segs = append(segs, k)
		}
	}
	ct.segs = segs
	ct.copyAct, ct.copyOut = keep(ct.copyAct, keepC), keep(ct.copyOut, keepC)
	ct.copyA, ct.copyB = keep(ct.copyA, keepC), keep(ct.copyB, keepC)
	ct.garbKind, ct.garbGate = keep(ct.garbKind, keepG), keep(ct.garbGate, keepG)
	ct.garbOut, ct.garbA = keep(ct.garbOut, keepG), keep(ct.garbA, keepG)
	ct.garbB, ct.garbS = keep(ct.garbB, keepG), keep(ct.garbS, keepG)
	ct.garbSlot = keep(ct.garbSlot, keepG)
	for i, t := range ct.garbSlot {
		ct.garbSlot[i] = rank[t]
	}
}

// keep compacts a in place to the elements whose flag in k is set.
func keep[T any](a []T, k []bool) []T {
	n := 0
	for i, x := range a {
		if k[i] {
			a[n] = x
			n++
		}
	}
	return a[:n]
}

// grow returns buf resized to n elements, reusing its capacity.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}
