package bencher

import (
	"context"
	"fmt"

	"arm2gc/internal/build"
	"arm2gc/internal/circuit"
	"arm2gc/internal/core"
	"arm2gc/internal/isa"
	"arm2gc/internal/obliv"
)

// Ablations of the netlist's design decisions, one `arm2gc-bench -table
// ablation-*` table each: the atomic MUX cell, the linear-scan oblivious
// memory of §4.4 and the backend that replaces it in large memories, and
// the architectural zero flag.

// AblationMuxCell quantifies the MUX-cell decision: a 32-bit selection
// between two ≈1,000-table multiplier cones, built (a) with atomic MUX
// cells and (b) with the free-XOR decomposition a0 ⊕ (s ∧ (a0⊕a1)).
// The decomposition happens to prune fine when the public select is 0
// (AND-with-0 releases the difference cone), but at select = 1 the AND
// passes the XOR difference through, whose labels consume *both* cones —
// the atomic cell releases the unselected one in both polarities. Under a
// secret select the two cost the same. The processor's result and memory
// muxes see public selects constantly, which is why the netlist format
// keeps MUX atomic.
func AblationMuxCell() (*Table, error) {
	mk := func(atomic bool, owner circuit.Owner) (*circuit.Circuit, error) {
		b := build.New("mux-ablation")
		sel := b.Input(owner, "sel", 1)[0]
		a := b.Input(circuit.Alice, "a", 32)
		x := b.Input(circuit.Bob, "x", 32)
		// Two cones of real work: a*x and a*¬x (≈993 tables each).
		f0 := b.MulLow(a, x)
		f1 := b.MulLow(a, b.NotBus(x))
		out := make(build.Bus, 32)
		for i := range out {
			if atomic {
				out[i] = b.Mux(sel, f1[i], f0[i])
			} else {
				out[i] = b.Xor(f0[i], b.And(sel, b.Xor(f0[i], f1[i])))
			}
		}
		b.Output("o", out)
		return b.Compile()
	}
	t := &Table{
		Title:  "Ablation — atomic MUX cell vs free-XOR decomposition (select between two ≈1k-table multipliers)",
		Header: []string{"Mux construction", "Select", "Garbled tables"},
	}
	for _, tc := range []struct {
		atomic bool
		owner  circuit.Owner
		sel    bool
		label  string
	}{
		{true, circuit.Public, false, "public 0"},
		{false, circuit.Public, false, "public 0"},
		{true, circuit.Public, true, "public 1"},
		{false, circuit.Public, true, "public 1"},
		{true, circuit.Alice, false, "secret"},
		{false, circuit.Alice, false, "secret"},
	} {
		c, err := mk(tc.atomic, tc.owner)
		if err != nil {
			return nil, err
		}
		var pub []bool
		if tc.owner == circuit.Public {
			pub = []bool{tc.sel}
		}
		st, _, err := core.Count(context.Background(), c, pub, core.CountOpts{Cycles: 1})
		if err != nil {
			return nil, err
		}
		name := "XOR decomposition"
		if tc.atomic {
			name = "atomic MUX cell"
		}
		t.Rows = append(t.Rows, []string{name, tc.label, num(int64(st.Tables()))})
	}
	t.Notes = append(t.Notes,
		"at public select 1 the decomposition ships both multipliers (≈2x); the atomic cell always ships exactly the selected one",
		"with a secret select both constructions pay one table per output bit plus both cones — atomicity costs nothing")
	return t, nil
}

// AblationObliviousScan measures the paper's §4.4 argument: the garbled
// cost of one load at a secret address as the enclosing memory grows.
// Linear scaling in the scanned region is the reason ARM2GC uses MUX
// arrays instead of ORAM below the break-even sizes — and the reason
// aligned arrays matter (only the aligned enclosing region is scanned).
func AblationObliviousScan() (*Table, error) {
	t := &Table{
		Title:  "Ablation — oblivious load cost vs data-memory size (one LDR at a secret address)",
		Header: []string{"Array words", "Garbled tables/load", "Tables/word"},
	}
	for _, words := range []int{8, 16, 32, 64, 128, 256} {
		// gc_main loads a[x] where x = b[0] is secret, bounded to the
		// array; the array region is words-aligned by construction.
		src := fmt.Sprintf(`
void gc_main(const int *a, const int *b, int *c) {
	int idx = b[0] & %d;
	c[0] = a[idx];
}`, words-1)
		w := &Workload{
			Name:   fmt.Sprintf("scan-%d", words),
			C:      src,
			Layout: isa.Layout{IMemWords: 64, AliceWords: words, BobWords: words, OutWords: words, ScratchWords: words},
			Alice:  seq(words),
			Bob:    []uint32{uint32(words / 2)},
			Check: func(a, b []uint32) []uint32 {
				out := make([]uint32, words)
				out[0] = a[b[0]&uint32(words-1)]
				return out
			},
		}
		res, err := RunOnCPU(w)
		if err != nil {
			return nil, err
		}
		// Subtract the fixed masking cost measured at the smallest size? No:
		// report raw and let the linear trend speak.
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", words),
			num(int64(res.Garbled())),
			fmt.Sprintf("%.1f", float64(res.Garbled())/float64(words)),
		})
	}
	t.Notes = append(t.Notes,
		"cost grows linearly in the scanned region (≈32 tables per word: a 32-bit MUX per candidate), the paper's linear-scan regime; ORAM break-evens cited in §4.4 start at 2-8KB",
		"the whole data memory scales with the array here; with mixed regions only the aligned enclosing region is scanned (see the merge-sort workload)")
	return t, nil
}

// AblationMemoryBackend measures the oblivious-memory backend decision:
// garbled tables per secret-address memory access on the relaxation
// kernel (RelaxWorkload) under the linear scan vs the square-root ORAM,
// as the array grows through the break-even. The scan pays ~32-34 tables
// per array word on every access; the ORAM elides the store write-backs
// (linear in n) against a stash overlay tax on loads (√n), so the ratio
// crosses 1 around 1KB of data memory and the 2KB default threshold sits
// safely inside the win region.
func AblationMemoryBackend(big bool) (*Table, error) {
	t := &Table{
		Title:  "Ablation — oblivious memory backend (relaxation kernel: 256 gather loads, 16 scatter stores at secret addresses)",
		Header: []string{"Array words", "Data memory", "Scan tables/access", "Sqrt-ORAM tables/access", "Ratio"},
	}
	sizes := []int{64, 128, 256}
	if big {
		sizes = append(sizes, 512, 1024)
	}
	for _, n := range sizes {
		w := RelaxWorkload(n)
		scan, err := RunOnCPUMem(w, obliv.Config{Backend: obliv.Scan})
		if err != nil {
			return nil, err
		}
		sqrt, err := RunOnCPUMem(w, obliv.Config{Backend: obliv.SqrtORAM})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%d B", w.Layout.DataWords()*4),
			num(int64(scan.Garbled() / RelaxAccesses)),
			num(int64(sqrt.Garbled() / RelaxAccesses)),
			fmt.Sprintf("%.4f", float64(sqrt.Garbled())/float64(scan.Garbled())),
		})
	}
	t.Notes = append(t.Notes,
		"the ORAM's win is the elided store write-backs: each of the 16 scatter stores saves ~34 tables/word while its deferred value rides the √window stash; loads pay ~40 tables per occupied slot of overlay",
		"below ~1KB the overlay tax outweighs the elision and the scan wins — the auto backend switches at 2KB (obliv.DefaultThreshold), the low end of the paper's cited ORAM break-even range")
	return t, nil
}

func seq(n int) []uint32 {
	v := make([]uint32, n)
	for i := range v {
		v[i] = uint32(i * 31)
	}
	return v
}

// AblationZFlag measures the architectural zero flag under per-cycle and
// cross-cycle SkipGate. The flag is an OR-tree over the 32-bit result:
// deciding gate by gate within a cycle, SkipGate garbles it whenever an
// S-suffixed instruction executes on secret data, because the flag
// flip-flop is a consumer. The compiled trace's liveness pass sees that no
// later cycle reads the flag before the next flag-setting instruction
// overwrites it — here, before the program ends — and drops the tree.
func AblationZFlag() (*Table, error) {
	prog := func(name, op string) *Workload {
		return &Workload{
			Name: name,
			Asm: `
gc_main:
	ldr r3, [r0]
	ldr r4, [r1]
	` + op + ` r3, r3, r4
	str r3, [r2]
	mov pc, lr
`,
			Layout: layout(1, 1, 1, 8),
			Alice:  []uint32{1}, Bob: []uint32{2},
			Check: func(a, b []uint32) []uint32 { return []uint32{a[0] + b[0]} },
		}
	}
	t := &Table{
		Title:  "Ablation — the architectural Z flag under per-cycle and cross-cycle SkipGate",
		Header: []string{"Instruction", "per-cycle SkipGate", "cross-cycle SkipGate"},
	}
	for _, w := range []*Workload{prog("add (no flags)", "add"), prog("adds (sets flags)", "adds")} {
		res, err := RunOnCPU(w)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{w.Name, num(int64(res.Stats.Total.Garbled)), num(int64(res.Garbled()))})
	}
	t.Notes = append(t.Notes,
		"per cycle, the S suffix adds ≈33 tables: the 31-AND zero-flag OR-tree plus carry/overflow muxes; multi-word arithmetic (ADDS/ADCS chains) pays it per word — why Sum 1024 cost 2x the paper's before the pass",
		"across cycles, a flag nothing reads costs nothing: adds = add")
	return t, nil
}
