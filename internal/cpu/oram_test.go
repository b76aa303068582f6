package cpu

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

	"arm2gc/internal/build"
	"arm2gc/internal/circuit"
	"arm2gc/internal/isa"
	"arm2gc/internal/obliv"
	"arm2gc/internal/sim"
)

// oramCPUs caches the scan/sqrt pair for the fuzz layout.
var oramCPUs = sync.OnceValues(func() (*[2]*CPU, error) {
	l := isa.Layout{IMemWords: 256, AliceWords: 8, BobWords: 8, OutWords: 13, ScratchWords: 16}
	scan, err := BuildMem(l, obliv.Config{Backend: obliv.Scan})
	if err != nil {
		return nil, err
	}
	sqrt, err := BuildMem(l, obliv.Config{Backend: obliv.SqrtORAM})
	if err != nil {
		return nil, err
	}
	return &[2]*CPU{scan, sqrt}, nil
})

// simOutputs runs a program on a processor circuit in plaintext simulation
// for a fixed cycle count and returns the decoded output words.
func simOutputs(t *testing.T, c *CPU, prog *isa.Program, alice, bob []uint32, cycles int) []uint32 {
	t.Helper()
	pub, err := c.PublicBits(prog)
	if err != nil {
		t.Fatal(err)
	}
	ab, err := c.InputBits(circuit.Alice, alice)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := c.InputBits(circuit.Bob, bob)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(c.Circuit, sim.Inputs{Public: pub, Alice: ab, Bob: bb})
	for i := 0; i < cycles; i++ {
		s.Step()
	}
	outBits, err := s.Output("out")
	if err != nil {
		t.Fatal(err)
	}
	return OutWords(outBits)
}

// haltCycle runs the program on the scan circuit until the halted output
// goes high (every test program here halts well inside the bound).
func haltCycle(t *testing.T, c *CPU, prog *isa.Program, alice, bob []uint32) int {
	t.Helper()
	pub, err := c.PublicBits(prog)
	if err != nil {
		t.Fatal(err)
	}
	ab, _ := c.InputBits(circuit.Alice, alice)
	bb, _ := c.InputBits(circuit.Bob, bob)
	s := sim.New(c.Circuit, sim.Inputs{Public: pub, Alice: ab, Bob: bb})
	for i := 1; i <= 10000; i++ {
		s.Step()
		h, err := s.Output("halted")
		if err != nil {
			t.Fatal(err)
		}
		if h[0] {
			return i
		}
	}
	t.Fatal("program did not halt within 10000 cycles")
	return 0
}

// checkBackendsAgree runs a halting program under both backends and fails
// on any output-word divergence.
func checkBackendsAgree(t *testing.T, scan, sqrt *CPU, prog *isa.Program, alice, bob []uint32) {
	t.Helper()
	cycles := haltCycle(t, scan, prog, alice, bob)
	got := simOutputs(t, scan, prog, alice, bob, cycles)
	oram := simOutputs(t, sqrt, prog, alice, bob, cycles)
	for i := range got {
		if got[i] != oram[i] {
			t.Fatalf("out[%d]: scan %#x, sqrt-oram %#x (halt at cycle %d)\nprogram:\n%s",
				i, got[i], oram[i], cycles, prog.Disassemble())
		}
	}
}

// TestSqrtORAMFuzzEquivalence runs the random-program generator under both
// memory backends: the stash ring + halt overlay must be observationally
// identical to the linear scan on every halting program. The generated
// programs store 16–30 words against a 7-slot stash, so wrap eviction and
// duplicate invalidation both run hot.
func TestSqrtORAMFuzzEquivalence(t *testing.T) {
	pair, err := oramCPUs()
	if err != nil {
		t.Fatal(err)
	}
	scan, sqrt := pair[0], pair[1]
	rng := rand.New(rand.NewSource(777))
	trials := 20
	if testing.Short() {
		trials = 5
	}
	for trial := 0; trial < trials; trial++ {
		prog := &isa.Program{Words: randomProgram(rng), Layout: scan.Layout, Name: "oram-fuzz"}
		alice := make([]uint32, 8)
		bob := make([]uint32, 8)
		for i := range alice {
			alice[i] = rng.Uint32()
			bob[i] = rng.Uint32()
		}
		// The emulator stays in the loop so a bug shared by both backends
		// cannot hide behind the equivalence check.
		checkCircuitVsEmulator(t, sqrt, prog, alice, bob)
		checkBackendsAgree(t, scan, sqrt, prog, alice, bob)
	}
}

// TestSqrtORAMDirectedPrograms covers the stash edge cases the random
// generator reaches only by luck: untaken conditional stores (the ring
// advances but the slot must stay dead), repeated stores to one address
// (duplicate invalidation), loads immediately after stores (stash hit
// path), and out-of-range accesses (must read zero and store nowhere,
// like the scan's padded tree).
func TestSqrtORAMDirectedPrograms(t *testing.T) {
	pair, err := oramCPUs()
	if err != nil {
		t.Fatal(err)
	}
	scan, sqrt := pair[0], pair[1]
	l := scan.Layout
	outByte := uint16(l.OutBase())

	type directed struct {
		name string
		asm  func(emit func(isa.Instr))
	}
	cases := []directed{
		{"untaken-conditional-stores", func(emit func(isa.Instr)) {
			// r3=1, r4=2; CMP r3,r4 sets NE; EQ-stores must not land.
			emit(isa.Instr{Kind: isa.KindDP, Cond: isa.AL, Op: isa.OpMOV, Rd: 3, Imm: true, Imm8: 1})
			emit(isa.Instr{Kind: isa.KindDP, Cond: isa.AL, Op: isa.OpMOV, Rd: 4, Imm: true, Imm8: 2})
			emit(isa.Instr{Kind: isa.KindDP, Cond: isa.AL, Op: isa.OpCMP, Rn: 3, Rm: 4})
			for i := 0; i < 10; i++ {
				emit(isa.Instr{Kind: isa.KindMem, Cond: isa.EQ, Up: true, Rn: 2, Rd: 3, Off12: uint16(4 * (i % 4))})
				emit(isa.Instr{Kind: isa.KindMem, Cond: isa.NE, Up: true, Rn: 2, Rd: 4, Off12: uint16(4 * (i % 4))})
			}
			// Read the stored slots back out.
			for i := 0; i < 4; i++ {
				emit(isa.Instr{Kind: isa.KindMem, Cond: isa.AL, Load: true, Up: true, Rn: 2, Rd: 5, Off12: uint16(4 * i)})
				emit(isa.Instr{Kind: isa.KindMem, Cond: isa.AL, Up: true, Rn: 2, Rd: 5, Off12: uint16(16 + 4*i)})
			}
		}},
		{"same-address-overwrite-chain", func(emit func(isa.Instr)) {
			// 12 stores to one word; only the last may be visible. With 7
			// stash slots the chain wraps and the evicted duplicates must
			// all be dead when the bank write-back fires.
			for i := 0; i < 12; i++ {
				emit(isa.Instr{Kind: isa.KindDP, Cond: isa.AL, Op: isa.OpMOV, Rd: 3, Imm: true, Imm8: uint8(10 + i)})
				emit(isa.Instr{Kind: isa.KindMem, Cond: isa.AL, Up: true, Rn: 2, Rd: 3, Off12: 0})
			}
			emit(isa.Instr{Kind: isa.KindMem, Cond: isa.AL, Load: true, Up: true, Rn: 2, Rd: 4, Off12: 0})
			emit(isa.Instr{Kind: isa.KindMem, Cond: isa.AL, Up: true, Rn: 2, Rd: 4, Off12: 4})
		}},
		{"store-load-interleave", func(emit func(isa.Instr)) {
			for i := 0; i < 8; i++ {
				emit(isa.Instr{Kind: isa.KindDP, Cond: isa.AL, Op: isa.OpMOV, Rd: 3, Imm: true, Imm8: uint8(100 + i)})
				emit(isa.Instr{Kind: isa.KindMem, Cond: isa.AL, Up: true, Rn: 2, Rd: 3, Off12: uint16(4 * i)})
				emit(isa.Instr{Kind: isa.KindMem, Cond: isa.AL, Load: true, Up: true, Rn: 2, Rd: 4, Off12: uint16(4 * i)})
				emit(isa.Instr{Kind: isa.KindDP, Cond: isa.AL, Op: isa.OpADD, Rd: 4, Rn: 4, Imm: true, Imm8: 1})
				emit(isa.Instr{Kind: isa.KindMem, Cond: isa.AL, Up: true, Rn: 2, Rd: 4, Off12: uint16(4 * i)})
			}
		}},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var words []uint32
			emit := func(i isa.Instr) {
				w, err := isa.Encode(i)
				if err != nil {
					t.Fatal(err)
				}
				words = append(words, w)
			}
			// r2 = output base, shared prologue; everything halts via SWI.
			emit(isa.Instr{Kind: isa.KindDP, Cond: isa.AL, Op: isa.OpMOV, Rd: 2, Imm: true, Imm8: uint8(outByte)})
			tc.asm(emit)
			emit(isa.Instr{Kind: isa.KindSWI, Cond: isa.AL})
			prog := &isa.Program{Words: words, Layout: l, Name: tc.name}
			alice := []uint32{1, 2, 3, 4, 5, 6, 7, 8}
			bob := []uint32{9, 10, 11, 12, 13, 14, 15, 16}
			checkCircuitVsEmulator(t, sqrt, prog, alice, bob)
			checkBackendsAgree(t, scan, sqrt, prog, alice, bob)
		})
	}
}

// TestSqrtORAMOutOfRange compares the two backends (circuit vs circuit;
// the emulator rejects wild addresses) on accesses past DataWords but
// inside the padded address space: loads read zero, stores vanish — the
// stash must not resurrect them.
func TestSqrtORAMOutOfRange(t *testing.T) {
	pair, err := oramCPUs()
	if err != nil {
		t.Fatal(err)
	}
	scan, sqrt := pair[0], pair[1]
	l := scan.Layout // 45 data words, 64-word padded space
	var words []uint32
	emit := func(i isa.Instr) {
		w, err := isa.Encode(i)
		if err != nil {
			t.Fatal(err)
		}
		words = append(words, w)
	}
	emit(isa.Instr{Kind: isa.KindDP, Cond: isa.AL, Op: isa.OpMOV, Rd: 2, Imm: true, Imm8: uint8(l.OutBase())})
	// Store 0xAB at padded word 50 (byte 200), then load it back and store
	// the result to the output region: must be 0, not 0xAB.
	emit(isa.Instr{Kind: isa.KindDP, Cond: isa.AL, Op: isa.OpMOV, Rd: 3, Imm: true, Imm8: 0xAB})
	emit(isa.Instr{Kind: isa.KindDP, Cond: isa.AL, Op: isa.OpMOV, Rd: 4, Imm: true, Imm8: 200})
	emit(isa.Instr{Kind: isa.KindMem, Cond: isa.AL, Up: true, Rn: 4, Rd: 3, Off12: 0})
	emit(isa.Instr{Kind: isa.KindMem, Cond: isa.AL, Load: true, Up: true, Rn: 4, Rd: 5, Off12: 0})
	emit(isa.Instr{Kind: isa.KindMem, Cond: isa.AL, Up: true, Rn: 2, Rd: 5, Off12: 0})
	emit(isa.Instr{Kind: isa.KindSWI, Cond: isa.AL})
	prog := &isa.Program{Words: words, Layout: l, Name: "oob"}
	alice := make([]uint32, 8)
	bob := make([]uint32, 8)

	checkBackendsAgree(t, scan, sqrt, prog, alice, bob)
	cycles := haltCycle(t, scan, prog, alice, bob)
	if out := simOutputs(t, sqrt, prog, alice, bob, cycles); out[0] != 0 {
		t.Fatalf("out-of-range load read %#x through the stash, want 0", out[0])
	}
}

// TestSqrtORAMRandomLayouts sweeps randomized memory geometries under both
// backends with a store/load mixing program, so the stash sizing, padding
// and output-region overlay are exercised at sizes other than the one
// fuzz layout.
func TestSqrtORAMRandomLayouts(t *testing.T) {
	rng := rand.New(rand.NewSource(31007))
	trials := 6
	if testing.Short() {
		trials = 3
	}
	for trial := 0; trial < trials; trial++ {
		l := isa.Layout{
			IMemWords:    64,
			AliceWords:   1 + rng.Intn(8),
			BobWords:     1 + rng.Intn(8),
			OutWords:     1 + rng.Intn(6),
			ScratchWords: 4 + rng.Intn(40),
		}
		if l.DataWords() < obliv.MinSqrtWords {
			l.ScratchWords += obliv.MinSqrtWords
		}
		scan, err := BuildMem(l, obliv.Config{Backend: obliv.Scan})
		if err != nil {
			t.Fatal(err)
		}
		sqrt, err := BuildMem(l, obliv.Config{Backend: obliv.SqrtORAM})
		if err != nil {
			t.Fatal(err)
		}

		var words []uint32
		emit := func(i isa.Instr) {
			w, err := isa.Encode(i)
			if err != nil {
				t.Fatal(err)
			}
			words = append(words, w)
		}
		// r1 = alice base, r2 = out base; fold Alice's first word through
		// a store/load chain across the scratch+out region.
		emit(isa.Instr{Kind: isa.KindDP, Cond: isa.AL, Op: isa.OpMOV, Rd: 1, Imm: true, Imm8: 0})
		emit(isa.Instr{Kind: isa.KindDP, Cond: isa.AL, Op: isa.OpMOV, Rd: 2, Imm: true, Imm8: uint8(l.OutBase())})
		emit(isa.Instr{Kind: isa.KindMem, Cond: isa.AL, Load: true, Up: true, Rn: 1, Rd: 3, Off12: 0})
		steps := 6 + rng.Intn(10)
		for i := 0; i < steps; i++ {
			slot := uint16(4 * rng.Intn(l.OutWords))
			emit(isa.Instr{Kind: isa.KindDP, Cond: isa.AL, Op: isa.OpADD, Rd: 3, Rn: 3, Imm: true, Imm8: uint8(1 + rng.Intn(200))})
			emit(isa.Instr{Kind: isa.KindMem, Cond: isa.AL, Up: true, Rn: 2, Rd: 3, Off12: slot})
			emit(isa.Instr{Kind: isa.KindMem, Cond: isa.AL, Load: true, Up: true, Rn: 2, Rd: 3, Off12: slot})
		}
		emit(isa.Instr{Kind: isa.KindSWI, Cond: isa.AL})
		prog := &isa.Program{Words: words, Layout: l, Name: "layout-sweep"}
		alice := make([]uint32, l.AliceWords)
		bob := make([]uint32, l.BobWords)
		for i := range alice {
			alice[i] = rng.Uint32()
		}
		for i := range bob {
			bob[i] = rng.Uint32()
		}
		t.Logf("trial %d: layout %+v (data words %d, stash %d)",
			trial, l, l.DataWords(), obliv.StashSlots(l.DataWords()))
		checkCircuitVsEmulator(t, sqrt, prog, alice, bob)
		checkBackendsAgree(t, scan, sqrt, prog, alice, bob)
	}
}

// TestBuildDataWordsValidation is the ISSUE's small fix: the data-memory
// word count gets the same up-front validation as IMemWords, with a clear
// error instead of a multi-GB synthesis attempt or a confusing downstream
// failure.
func TestBuildDataWordsValidation(t *testing.T) {
	l := isa.Layout{IMemWords: 64, AliceWords: obliv.MaxDataWords, BobWords: 1, OutWords: 1, ScratchWords: 16}
	_, err := Build(l)
	if err == nil {
		t.Fatal("Build accepted a data memory beyond the buildable range")
	}
	if !strings.Contains(err.Error(), "data memory") {
		t.Fatalf("error %q does not name the data memory", err)
	}

	// The sqrt backend additionally refuses degenerate tiny memories with
	// an error that names the fallback.
	tiny := isa.Layout{IMemWords: 64, AliceWords: 1, BobWords: 1, OutWords: 1, ScratchWords: 4}
	if tiny.DataWords() >= obliv.MinSqrtWords {
		t.Fatalf("test layout too big: %d", tiny.DataWords())
	}
	_, err = BuildMem(tiny, obliv.Config{Backend: obliv.SqrtORAM})
	if err == nil || !strings.Contains(err.Error(), "sqrt-oram") {
		t.Fatalf("BuildMem(tiny, sqrt-oram) error = %v, want a sqrt-oram size error", err)
	}
}

// TestCacheBackendSeparation pins the machine-cache key: the same layout
// under different backends yields different machines, while Get and the
// scan-resolved GetMem share one.
func TestCacheBackendSeparation(t *testing.T) {
	var c Cache
	l := testLayout()
	scan1, err := c.Get(l)
	if err != nil {
		t.Fatal(err)
	}
	scan2, err := c.GetMem(l, obliv.Config{Backend: obliv.Scan})
	if err != nil {
		t.Fatal(err)
	}
	if scan1 != scan2 {
		t.Fatal("Get and GetMem(scan) built separate machines for one layout")
	}
	sqrt, err := c.GetMem(l, obliv.Config{Backend: obliv.SqrtORAM})
	if err != nil {
		t.Fatal(err)
	}
	if sqrt == scan1 {
		t.Fatal("scan and sqrt-oram shared a cache entry")
	}
	if sqrt.Backend != obliv.SqrtORAM || scan1.Backend != obliv.Scan {
		t.Fatalf("backend labels: scan=%q sqrt=%q", scan1.Backend, sqrt.Backend)
	}
	if sqrt.Circuit.Hash() == scan1.Circuit.Hash() {
		t.Fatal("backends produced identical netlists — session ids would collide")
	}
	if got := c.Builds(); got != 2 {
		t.Fatalf("builds = %d, want 2", got)
	}
	// Auto resolves before the key: below the threshold it shares the
	// scan entry.
	auto, err := c.GetMem(l, obliv.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if auto != scan1 {
		t.Fatal("auto below the threshold did not reuse the scan machine")
	}
	if got := c.Builds(); got != 2 {
		t.Fatalf("builds after auto = %d, want 2 (cache hit)", got)
	}
}

// TestDebugLint: both backends' processor netlists come through BuildMem
// (which runs the backend's width self-check) and the netlist structural
// lint clean — a failure here means either a backend regression or a lint
// false positive on a real processor netlist.
func TestDebugLint(t *testing.T) {
	l := isa.Layout{IMemWords: 64, AliceWords: 4, BobWords: 4, OutWords: 4, ScratchWords: 20}
	for _, backend := range []string{obliv.Scan, obliv.SqrtORAM} {
		c, err := BuildMem(l, obliv.Config{Backend: backend})
		if err != nil {
			t.Fatalf("BuildMem(%s): %v", backend, err)
		}
		if err := build.Lint(c.Circuit, build.LintOpts{}).Err(); err != nil {
			t.Errorf("lint of the %s netlist: %v", backend, err)
		}
	}
}
