// Package obliv provides the oblivious data-memory backends of the
// garbled processor: circuit-level implementations of the CPU's
// word-addressed RAM, one per machine.
//
// Two backends exist. Scan is the paper's §4.4 linear scan — a MUX tree
// over every word on loads and a full decoder + write-mux array on stores
// (~32 garbled tables per scanned word once the address is secret).
// SqrtORAM keeps the same word array as a bank but routes stores through
// a √n-slot stash ring addressed at *public* ring positions, so a store
// appends for ~free and the 34n-table bank write-back is deferred until
// the ring wraps — and never paid at all for the trailing √n stores of a
// run (the output region is reconciled by a halt-gated overlay instead).
// Loads pay the bank scan plus a small per-slot overlay tax, which is the
// break-even: big memories with bounded store counts win, small or
// store-saturated ones lose. See the README's "Oblivious memory" section
// for the measured crossover.
//
// The Auto backend picks between them by memory size against
// DefaultThreshold words, the measured 2KB crossover, which is the
// paper's "linear scan below the ORAM break-even" rule made operational.
//
// Everything here is wire-stream-critical: both parties must derive
// byte-identical public circuit state, so code in this package must be
// fully deterministic (no map-order, wall-clock, global-rand, or
// scheduling dependence). The arm2gc-vet determinism analyzer enforces
// this; the next line is its machine-readable annotation.
//
//arm2gc:deterministic
package obliv

import (
	"fmt"
	"math"

	"arm2gc/internal/build"
	"arm2gc/internal/isa"
)

// Backend names. Auto resolves to one of the concrete two at machine
// build time; every cache key, trace key and session id sees only the
// resolved name.
const (
	Auto     = "auto"
	Scan     = "scan"
	SqrtORAM = "sqrt-oram"
)

// DefaultThreshold is the data-memory size (words) at which Auto switches
// from the linear scan to the square-root ORAM: 512 words = 2 KB, the
// low end of the paper's cited 2–8 KB ORAM break-even range and the
// measured crossover for relaxation-class workloads (see
// TestMemoryBackendCrossover).
const DefaultThreshold = 512

// MinSqrtWords is the smallest data memory the square-root ORAM accepts:
// below it the stash ring degenerates (fewer than 4 slots) and the scan
// is strictly better anyway.
const MinSqrtWords = 16

// MaxDataWords bounds the data-memory size any backend will build. The
// load scan and the store decoder are both linear in the padded word
// count, so a mistyped layout would otherwise synthesize a multi-GB
// netlist before failing somewhere confusing.
const MaxDataWords = 1 << 20

// Config names the memory backend a processor is built with. The zero
// value means Auto, which is what every session runs with; the concrete
// names serve tests and measurements below the session API.
type Config struct {
	// Backend is Auto, Scan, SqrtORAM, or "" (Auto).
	Backend string
}

// ParseBackend validates a backend name ("" means Auto).
func ParseBackend(s string) (string, error) {
	switch s {
	case "", Auto:
		return Auto, nil
	case Scan:
		return Scan, nil
	case SqrtORAM:
		return SqrtORAM, nil
	}
	return "", fmt.Errorf("obliv: unknown memory backend %q (want %q, %q or %q)", s, Auto, Scan, SqrtORAM)
}

// Resolve picks the concrete backend for a data memory of dataWords
// words: explicit names pass through (validated), Auto compares against
// DefaultThreshold.
func (c Config) Resolve(dataWords int) (string, error) {
	name, err := ParseBackend(c.Backend)
	if err != nil {
		return "", err
	}
	if name != Auto {
		return name, nil
	}
	if dataWords >= DefaultThreshold {
		return SqrtORAM, nil
	}
	return Scan, nil
}

// stashWindow is the stash coverage of the square-root ORAM for a data
// memory of dataWords words: the number of words, from address zero,
// whose stores the stash absorbs — the largest power of two strictly
// below dataWords (the region-aligned prefix where the parties' arrays
// live; the MiniC stack sits at the top of scratch, above it). Stores
// above the window write the bank directly, free when their addresses are
// public. The "strictly" matters: a window equal to the whole memory
// would put the stack back inside the stash's coverage, and its spills
// would flood the ring and evict the deferred array stores early.
func stashWindow(dataWords int) int {
	w := 1
	for w*2 < dataWords {
		w *= 2
	}
	return w
}

// Memory is one instantiated data-memory backend inside a processor
// netlist under construction. The CPU generator drives it through four
// calls, in order: Instantiate (registers + initialization), Read (the
// load port), Write (the store port), Outputs (the output-region view).
type Memory interface {
	// Name is the resolved backend name this memory was built with.
	Name() string

	// Read returns the 32-bit load value for a word address (width
	// log2ceil(DataWords)). Pure combinational read of this cycle's
	// state.
	Read(addr build.Bus) build.Bus

	// Write wires the store port: data is stored at addr when en (the
	// fully gated store enable: isStore ∧ condPass ∧ running) holds. en
	// is public whenever the instruction stream and the store's
	// predicate are — which the sqrt-ORAM relies on to keep its stash
	// ring positions public (a secret-PC or secret-predicate program
	// still computes correctly, just without the free-append discount).
	Write(addr build.Bus, data build.Bus, en build.W)

	// Outputs returns the output region (l.OutWords words starting at
	// l.OutBase) as seen at the cycle where halt is true. halt is the
	// halted-after-this-cycle wire; backends that defer writes reconcile
	// them into this view under a halt-gated overlay, so the decoded
	// outputs match the scan's exactly on every halting run. (On a run
	// that exhausts its cycle budget without halting, a deferring
	// backend's outputs reflect only the written-back state — halting
	// programs are the architectural contract.)
	Outputs(halt build.W) build.Bus

	// Check verifies the backend's internal width invariants (bank size
	// vs layout, stash tag/data/slot-counter widths) after construction.
	// cpu.BuildMem runs it on every build; a failure means the
	// backend wired a bus that cannot address or hold what the layout
	// requires, which would otherwise surface only as wrong outputs.
	Check() error
}

// Instantiate builds the named backend's state (registers and
// initialization) into b. aliceOff and bobOff are the parties' input-bit
// offsets for the Alice/Bob region initialization, as reserved by the CPU
// generator. The name must be concrete (Resolve first); Auto is refused.
func Instantiate(b *build.Builder, name string, l isa.Layout, aliceOff, bobOff int) (Memory, error) {
	if l.DataWords() > MaxDataWords {
		return nil, fmt.Errorf("obliv: data memory of %d words exceeds the %d-word bound", l.DataWords(), MaxDataWords)
	}
	switch name {
	case Scan:
		return newScan(b, l, aliceOff, bobOff), nil
	case SqrtORAM:
		if l.DataWords() < MinSqrtWords {
			return nil, fmt.Errorf("obliv: sqrt-oram needs at least %d data words, layout has %d (use %q)",
				MinSqrtWords, l.DataWords(), Scan)
		}
		return newSqrt(b, l, stashWindow(l.DataWords()), aliceOff, bobOff), nil
	case Auto, "":
		return nil, fmt.Errorf("obliv: Instantiate needs a resolved backend, not %q", Auto)
	}
	return nil, fmt.Errorf("obliv: unknown memory backend %q", name)
}

// StashSlots is the stash ring size the sqrt-ORAM uses for a memory of n
// words: ⌈√n⌉, floored at 4 slots.
func StashSlots(n int) int {
	s := int(math.Ceil(math.Sqrt(float64(n))))
	if s < 4 {
		s = 4
	}
	return s
}

// log2ceil returns the smallest k with 1<<k >= n.
func log2ceil(n int) int {
	k := 0
	for 1<<k < n {
		k++
	}
	return k
}
