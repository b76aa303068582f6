package arm2gc

import (
	"fmt"
	"testing"

	"arm2gc/internal/obliv"
)

// relaxSrc is a Dijkstra-class relaxation kernel: mostly gather loads at
// secret addresses over a 32-word array, with a few predicated scatter
// stores — the access pattern the square-root ORAM is built for, sized
// for a grid of full two-party runs under the race detector (the
// bencher's crossover tests carry the big arrays). The array is Alice's
// input region (region-aligned at word zero), so the secret addresses
// keep public high bits and the PC stays public.
const relaxSrc = `
void gc_main(int *a, const int *b, int *c) {
	unsigned acc = 0;
	for (int k = 0; k < 32; k = k + 1) {
		unsigned i = (b[k & 15] ^ k) & 31;
		unsigned v = a[i];
		acc = acc + v;
		if ((k & 7) == 0) {
			a[i] = acc ^ k;
		}
	}
	c[0] = acc;
	c[1] = a[(b[0] ^ 3) & 31];
}
`

func relaxLayout() Layout {
	return Layout{IMemWords: 64, AliceWords: 32, BobWords: 16, OutWords: 4, ScratchWords: 64}
}

func compileRelax(t testing.TB) *Program {
	t.Helper()
	prog, warnings, err := CompileC("relax", relaxSrc, relaxLayout())
	if err != nil {
		t.Fatal(err)
	}
	if len(warnings) != 0 {
		t.Fatalf("unexpected warnings: %v", warnings)
	}
	return prog
}

// sessionOn is eng.Session on a machine of the named memory backend: a
// test hook below the API, where every session takes the auto rule.
func sessionOn(t testing.TB, eng *Engine, backend string, p *Program, opts ...Option) *Session {
	t.Helper()
	s, err := eng.Session(p, opts...)
	if err != nil {
		t.Fatal(err)
	}
	c, err := eng.cache.GetMem(p.Layout, obliv.Config{Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	s.m = &Machine{cpu: c}
	return s
}

func relaxInputs() (alice, bob []uint32) {
	alice = make([]uint32, 32)
	bob = make([]uint32, 16)
	for i := range alice {
		alice[i] = uint32(i)*2654435761 + 17
	}
	for i := range bob {
		bob[i] = uint32(i*40499 + 3)
	}
	return alice, bob
}

// TestMemoryBackendEquivalenceGrid is the backend-equivalence suite: the
// same relaxation program, garbled two-party under the scan and the
// square-root ORAM across cycle-batch settings, must decode identical
// outputs — equal to the native emulation — with equal cycle counts.
func TestMemoryBackendEquivalenceGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("six full two-party runs")
	}
	prog := compileRelax(t)
	alice, bob := relaxInputs()
	want, wantCycles, err := Emulate(prog, alice, bob, 100_000)
	if err != nil {
		t.Fatal(err)
	}

	eng := NewEngine()
	cycles := map[string]int{}
	for _, backend := range []string{MemoryScan, MemorySqrtORAM} {
		for _, batch := range []int{1, 4, 8} {
			t.Run(fmt.Sprintf("%s/b%d", backend, batch), func(t *testing.T) {
				opts := []Option{WithMaxCycles(100_000), WithCycleBatch(batch)}
				gs := sessionOn(t, eng, backend, prog, opts...)
				es := sessionOn(t, eng, backend, prog, opts...)
				if got := gs.Machine().MemoryBackend(); got != backend {
					t.Fatalf("machine backend %q, want %q", got, backend)
				}
				ga, ev := runTwoParty(t, gs, es, alice, bob)
				for _, info := range []*RunInfo{ga, ev} {
					for i := range want {
						if info.Outputs[i] != want[i] {
							t.Fatalf("output[%d] = %#x, want %#x (native)", i, info.Outputs[i], want[i])
						}
					}
					if info.Cycles != wantCycles {
						t.Fatalf("ran %d cycles, native %d", info.Cycles, wantCycles)
					}
				}
				cycles[backend] = ga.Cycles
			})
		}
	}
	if cycles[MemoryScan] != 0 && cycles[MemoryScan] != cycles[MemorySqrtORAM] {
		t.Errorf("backends disagree on cycle count: scan %d, sqrt-oram %d",
			cycles[MemoryScan], cycles[MemorySqrtORAM])
	}
	// One machine per (layout, backend): three grid points per backend
	// share a netlist.
	if got := eng.Builds(); got != 2 {
		t.Errorf("grid performed %d netlist builds, want 2 (one per backend)", got)
	}
}

// TestMemoryBackendAutoSelection pins the auto rule end to end through
// the session API: below the threshold a session runs on the scan, at
// 512+ data words on the square-root ORAM, and a machine pinned to the
// backend auto picked is the same cached one.
func TestMemoryBackendAutoSelection(t *testing.T) {
	eng := NewEngine()
	small := compileAdd(t)                              // 20 data words
	s, err := eng.Session(small, WithMaxCycles(10_000)) // default: auto
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Machine().MemoryBackend(); got != MemoryScan {
		t.Errorf("auto over %d data words picked %q, want %q", small.Layout.DataWords(), got, MemoryScan)
	}

	big := relaxLayout()
	big.AliceWords = 512 // 596 data words ≥ the 512-word threshold
	bigProg, _, err := CompileC("relax-big", relaxSrc, big)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := eng.Session(bigProg, WithMaxCycles(10_000))
	if err != nil {
		t.Fatal(err)
	}
	if got := sb.Machine().MemoryBackend(); got != MemorySqrtORAM {
		t.Errorf("auto over %d data words picked %q, want %q", big.DataWords(), got, MemorySqrtORAM)
	}

	builds := eng.Builds()
	if se := sessionOn(t, eng, MemorySqrtORAM, bigProg); se.Machine().cpu != sb.Machine().cpu || eng.Builds() != builds {
		t.Errorf("pinned %q did not share auto's machine (builds %d → %d)",
			MemorySqrtORAM, builds, eng.Builds())
	}
}
