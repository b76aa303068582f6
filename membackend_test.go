package arm2gc

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
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

func relaxInputs() (alice, bob []uint32) {
	alice = make([]uint32, 32)
	bob = make([]uint32, 16)
	for i := range alice {
		alice[i] = uint32(i*2654435761 + 17)
	}
	for i := range bob {
		bob[i] = uint32(i*40499 + 3)
	}
	return alice, bob
}

// TestMemoryBackendEquivalenceGrid is the backend-equivalence suite: the
// same relaxation program, garbled two-party under the scan and the
// square-root ORAM across a read-ahead × cycle-batch grid (p: the
// evaluator's read-ahead depth), must decode identical outputs — equal to
// the native emulation — with equal cycle counts. Read-ahead is a local
// knob and must not perturb either backend's stream.
func TestMemoryBackendEquivalenceGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("twelve full two-party runs")
	}
	prog := compileRelax(t)
	alice, bob := relaxInputs()
	want, wantCycles, err := Emulate(prog, alice, bob, 100_000)
	if err != nil {
		t.Fatal(err)
	}

	eng := NewEngine()
	grid := []struct {
		readAhead, batch int
	}{
		{0, 1},
		{2, 4},
		{1, 8},
	}
	cycles := map[string]int{}
	for _, backend := range []string{MemoryScan, MemorySqrtORAM} {
		for _, g := range grid {
			name := fmt.Sprintf("%s/p%d-b%d", backend, g.readAhead, g.batch)
			t.Run(name, func(t *testing.T) {
				common := []Option{
					WithMaxCycles(100_000),
					WithMemoryBackend(backend),
					WithCycleBatch(g.batch),
				}
				gs, err := eng.Session(prog, common...)
				if err != nil {
					t.Fatal(err)
				}
				es, err := eng.Session(prog, append(common, WithReadAhead(g.readAhead))...)
				if err != nil {
					t.Fatal(err)
				}
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
// the session API: below the threshold auto builds the scan, at 512+
// data words it builds the square-root ORAM, and an explicit matching
// name shares the auto-built machine.
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
	se, err := eng.Session(bigProg, WithMaxCycles(10_000), WithMemoryBackend(MemorySqrtORAM))
	if err != nil {
		t.Fatal(err)
	}
	if se.Machine().MemoryBackend() != MemorySqrtORAM || eng.Builds() != builds {
		t.Errorf("explicit %q did not share auto's machine (builds %d → %d)",
			MemorySqrtORAM, builds, eng.Builds())
	}

	if _, err := eng.Session(small, WithMemoryBackend("round-oram")); err == nil ||
		!strings.Contains(err.Error(), "unknown memory backend") {
		t.Errorf("bogus backend name: err = %v, want unknown-backend", err)
	}
}

// TestServerMemoryBackendMismatch: a client proposing a backend other
// than the registration's resolved one is rejected with a readable
// reason — and the connection survives for a matching session.
func TestServerMemoryBackendMismatch(t *testing.T) {
	prog := compileAdd(t)
	eng := NewEngine()
	srv := NewServer(eng)
	if err := srv.Register("add", prog,
		WithMaxCycles(10_000),
		WithMemoryBackend(MemoryScan),
		WithGarblerInput([]uint32{100})); err != nil {
		t.Fatal(err)
	}
	addr, shutdown := startServer(t, srv)
	defer shutdown()

	cl, err := Dial(context.Background(), addr, WithClientEngine(eng))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Register("add", prog); err != nil {
		t.Fatal(err)
	}

	_, err = cl.Evaluate(context.Background(), "add", []uint32{1}, WithMemoryBackend(MemorySqrtORAM))
	var rej *RejectedError
	if !errors.As(err, &rej) {
		t.Fatalf("mismatched backend: got %v, want *RejectedError", err)
	}
	if !strings.Contains(rej.Reason, "memory backend") || !strings.Contains(rej.Reason, MemoryScan) {
		t.Errorf("rejection reason %q does not name the backends", rej.Reason)
	}

	// Same connection, matching proposals: an explicit scan and an
	// auto that resolves to scan must both run.
	for _, backend := range []string{MemoryScan, MemoryAuto} {
		info, err := cl.Evaluate(context.Background(), "add", []uint32{1}, WithMemoryBackend(backend))
		if err != nil {
			t.Fatalf("matching session (%q) after rejection: %v", backend, err)
		}
		if info.Outputs[0] != 101 {
			t.Fatalf("sum = %d, want 101", info.Outputs[0])
		}
	}
}
