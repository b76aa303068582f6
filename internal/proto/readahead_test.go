package proto

import (
	"bytes"
	"testing"
)

// TestReadAheadByteIdentical pins the evaluator read-ahead contract:
// buffering frames off the socket ahead of the cycle loop is a purely
// local knob — outputs, stats and the garbler's wire bytes must be
// untouched for every depth × batch combination.
func TestReadAheadByteIdentical(t *testing.T) {
	for _, batch := range []int{1, 8} {
		base, alice, bob := multiCycleConfig(t, batch)
		ra, rb, want := runBothAsym(t, base, base, alice, bob, 17)

		for _, depth := range []int{1, 2, 16} {
			cfgE := base
			cfgE.ReadAhead = depth
			sa, sb, got := runBothAsym(t, base, cfgE, alice, bob, 17)
			if len(got) != len(want) {
				t.Fatalf("b%d d%d: %d frames, synchronous saw %d", batch, depth, len(got), len(want))
			}
			for i := range want {
				if !bytes.Equal(want[i], got[i]) {
					t.Fatalf("b%d d%d: frame %d differs under read-ahead", batch, depth, i)
				}
			}
			if sa.Stats != ra.Stats || sb.Stats != rb.Stats {
				t.Fatalf("b%d d%d: stats diverge under read-ahead", batch, depth)
			}
			for i := range rb.Outputs {
				if sb.Outputs[i] != rb.Outputs[i] || sa.Outputs[i] != ra.Outputs[i] {
					t.Fatalf("b%d d%d: output %d differs under read-ahead", batch, depth, i)
				}
			}
		}
	}
}

// TestReadAheadHalted exercises read-ahead across the halt edge: the
// classifying evaluator cannot know the stream length, so the read-ahead
// goroutine reads through the decode frame that ends the session and the
// typed decode read picks it up from the buffer.
func TestReadAheadHalted(t *testing.T) {
	for _, batch := range []int{1, 4} {
		cfg, alice, bob := haltingConfig(t, batch)
		ra, rb, _ := runBothAsym(t, cfg, cfg, alice, bob, 23)
		if !rb.Halted {
			t.Fatalf("batch %d: reference run did not halt", batch)
		}

		cfgE := cfg
		cfgE.ReadAhead = 4
		sa, sb, _ := runBothAsym(t, cfg, cfgE, alice, bob, 23)
		if !sa.Halted || !sb.Halted {
			t.Fatalf("batch %d: read-ahead run did not halt", batch)
		}
		if sa.Stats != ra.Stats || sb.Stats != rb.Stats {
			t.Fatalf("batch %d: stats diverge under read-ahead", batch)
		}
		for i := range rb.Outputs {
			if sb.Outputs[i] != rb.Outputs[i] {
				t.Fatalf("batch %d: output %d differs under read-ahead", batch, i)
			}
		}
	}
}

// TestReadAheadTraceReplay covers the replaying evaluator — including
// against a pooled (recorded) garbler, the server's steady state.
func TestReadAheadTraceReplay(t *testing.T) {
	for _, batch := range []int{1, 4} {
		cfg, alice, bob := haltingConfig(t, batch)
		_, trE := recordTraces(t, cfg, alice, bob, 29)
		ra, rb, _ := runBothAsym(t, cfg, cfg, alice, bob, 29)

		cfgE := cfg
		cfgE.Trace = trE
		cfgE.ReadAhead = 4
		sa, sb, _ := runBothAsym(t, cfg, cfgE, alice, bob, 29)
		if sa.Stats != ra.Stats || sb.Stats != rb.Stats {
			t.Fatalf("batch %d: stats diverge (replay + read-ahead)", batch)
		}
		for i := range rb.Outputs {
			if sb.Outputs[i] != rb.Outputs[i] {
				t.Fatalf("batch %d: output %d differs (replay + read-ahead)", batch, i)
			}
		}

		// Same evaluator against a pooled garbler stream.
		rec, _, err := RecordGarbler(nil, cfg, alice, nil)
		if err != nil {
			t.Fatal(err)
		}
		_, pb, _ := serveBoth(t, cfg, cfgE, rec, bob)
		if pb.Stats != rb.Stats {
			t.Fatalf("batch %d: pooled stats diverge under read-ahead replay", batch)
		}
		for i := range rb.Outputs {
			if pb.Outputs[i] != rb.Outputs[i] {
				t.Fatalf("batch %d: pooled output %d differs under read-ahead replay", batch, i)
			}
		}
	}
}

// TestReadAheadGarblerOnlyOutputs: in OutputGarblerOnly mode the garbler
// still ends its side with a decode frame, an empty one, so read-ahead
// stops on it as in every other mode and the exchange stays intact.
func TestReadAheadGarblerOnlyOutputs(t *testing.T) {
	base, alice, bob := multiCycleConfig(t, 2)
	base.Outputs = OutputGarblerOnly
	ra, _, _ := runBothAsym(t, base, base, alice, bob, 31)

	cfgE := base
	cfgE.ReadAhead = 4
	sa, sb, _ := runBothAsym(t, base, cfgE, alice, bob, 31)
	if len(sb.Outputs) != 0 {
		t.Fatalf("evaluator learned %d outputs in garbler-only mode", len(sb.Outputs))
	}
	for i := range ra.Outputs {
		if sa.Outputs[i] != ra.Outputs[i] {
			t.Fatalf("garbler output %d differs", i)
		}
	}
}
