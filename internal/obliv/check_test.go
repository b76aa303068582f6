package obliv

import (
	"strings"
	"testing"

	"arm2gc/internal/build"
	"arm2gc/internal/circuit"
	"arm2gc/internal/isa"
)

// checkLayout is big enough for the sqrt-ORAM (>= MinSqrtWords data
// words) and small enough to instantiate in microseconds.
func checkLayout() isa.Layout {
	return isa.Layout{IMemWords: 16, AliceWords: 4, BobWords: 4, OutWords: 4, ScratchWords: 20}
}

func instantiate(t *testing.T, name string) Memory {
	t.Helper()
	l := checkLayout()
	b := build.New("check-" + name)
	aliceOff := b.AllocInputBits(circuit.Alice, l.AliceWords*32)
	bobOff := b.AllocInputBits(circuit.Bob, l.BobWords*32)
	m, err := Instantiate(b, name, l, aliceOff, bobOff)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestCheckHealthyBackends: both backends pass their width self-check
// right after instantiation — the state cpu.BuildMem verifies on every
// build.
func TestCheckHealthyBackends(t *testing.T) {
	for _, name := range []string{Scan, SqrtORAM} {
		if err := instantiate(t, name).Check(); err != nil {
			t.Errorf("%s: Check() = %v, want nil", name, err)
		}
	}
}

// TestCheckCorruptedScan: a bank that lost a word no longer covers the
// layout's address space.
func TestCheckCorruptedScan(t *testing.T) {
	m := instantiate(t, Scan).(*scanMem)
	m.dmem = m.dmem[:len(m.dmem)-1]
	err := m.Check()
	if err == nil || !strings.Contains(err.Error(), "bank has") {
		t.Fatalf("truncated scan bank: Check() = %v, want a bank-size error", err)
	}
}

// TestCheckCorruptedSqrt: each invariant class trips on its own
// corruption.
func TestCheckCorruptedSqrt(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(m *sqrtMem)
		wantSub string
	}{
		{"truncated-bank", func(m *sqrtMem) { m.bank = m.bank[:len(m.bank)-1] }, "bank has"},
		{"narrow-address", func(m *sqrtMem) { m.dbits-- }, "address width"},
		{"non-pow2-window", func(m *sqrtMem) { m.window = 3 }, "not a positive power of two"},
		{"missing-slot", func(m *sqrtMem) { m.slots = m.slots[:len(m.slots)-1] }, "stash slots"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := instantiate(t, SqrtORAM).(*sqrtMem)
			tc.corrupt(m)
			err := m.Check()
			if err == nil || !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("Check() = %v, want an error containing %q", err, tc.wantSub)
			}
		})
	}
}
