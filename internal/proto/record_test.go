package proto

import (
	"bytes"
	"context"
	mrand "math/rand"
	"net"
	"strings"
	"testing"
)

// serveBoth plays ServeRecorded against RunEvaluator over a pipe, tapping
// the table frames the evaluator sees — the pooled-session counterpart of
// runBothAsym.
func serveBoth(t *testing.T, cfgG, cfgE Config, rec *Recorded, bob []bool) (*Result, *Result, [][]byte) {
	t.Helper()
	var frames [][]byte
	cfgE.tapTables = func(p []byte) { frames = append(frames, append([]byte(nil), p...)) }
	ca, cb := net.Pipe()
	defer ca.Close()
	defer cb.Close()
	type res struct {
		r   *Result
		err error
	}
	ch := make(chan res, 1)
	go func() {
		r, err := ServeRecorded(context.Background(), ca, cfgG, rec)
		ch <- res{r, err}
	}()
	rb, err := RunEvaluator(context.Background(), cb, cfgE, bob)
	if err != nil {
		t.Fatalf("evaluator: %v", err)
	}
	ra := <-ch
	if ra.err != nil {
		t.Fatalf("serve recorded: %v", ra.err)
	}
	return ra.r, rb, frames
}

// TestRecordServeByteIdenticalGrid is the offline/online acceptance grid:
// a stream garbled offline by RecordGarbler and served by ServeRecorded
// must put exactly the bytes a live RunGarbler puts on the wire — from
// the same label randomness — for every cycle batch, with identical
// outputs and stats on both sides.
func TestRecordServeByteIdenticalGrid(t *testing.T) {
	base, alice, bob := multiCycleConfig(t, 1)
	for _, batch := range []int{1, 8} {
		cfg := base
		cfg.CycleBatch = batch

		// Live reference at this grid point.
		ra, rb, want := runBothAsym(t, cfg, cfg, alice, bob, 7)
		if len(want) == 0 {
			t.Fatalf("b%d: no reference frames", batch)
		}

		rec, rres, err := RecordGarbler(context.Background(), cfg, alice,
			mrand.New(mrand.NewSource(7)))
		if err != nil {
			t.Fatalf("b%d: record: %v", batch, err)
		}
		if rec.TableFrames() != len(want) {
			t.Fatalf("b%d: recorded %d frames, live sent %d", batch, rec.TableFrames(), len(want))
		}
		if rres.Stats != ra.Stats {
			t.Fatalf("b%d: offline stats %+v, live %+v", batch, rres.Stats, ra.Stats)
		}

		sa, sb, got := serveBoth(t, cfg, cfg, rec, bob)
		if len(got) != len(want) {
			t.Fatalf("b%d: served %d frames, live sent %d", batch, len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(want[i], got[i]) {
				t.Fatalf("b%d: frame %d differs from live garbling", batch, i)
			}
		}
		if sa.Stats != ra.Stats || sb.Stats != rb.Stats {
			t.Fatalf("b%d: served stats diverge", batch)
		}
		for i := range ra.Outputs {
			if sa.Outputs[i] != ra.Outputs[i] || sb.Outputs[i] != rb.Outputs[i] {
				t.Fatalf("b%d: output %d differs from live run", batch, i)
			}
		}
	}
}

// TestRecordServeTraceReplay pins the pool's steady state: offline
// recording through a compiled classification trace (the producer's warm
// path) must still serve the exact classified bytes, to a classifying
// evaluator and to a replaying one.
func TestRecordServeTraceReplay(t *testing.T) {
	base, alice, bob := multiCycleConfig(t, 4)
	tr := compileTrace(t, base)
	_, rb, want := runBothAsym(t, base, base, alice, bob, 9)

	cfgR := base
	cfgR.Trace = tr
	rec, _, err := RecordGarbler(context.Background(), cfgR, alice, mrand.New(mrand.NewSource(9)))
	if err != nil {
		t.Fatalf("record via trace: %v", err)
	}
	_, sb, got := serveBoth(t, base, base, rec, bob)
	if len(got) != len(want) {
		t.Fatalf("trace-recorded stream: %d frames, classified sent %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(want[i], got[i]) {
			t.Fatalf("trace-recorded stream: frame %d differs", i)
		}
	}
	for i := range rb.Outputs {
		if sb.Outputs[i] != rb.Outputs[i] {
			t.Fatalf("trace-recorded stream: output %d differs", i)
		}
	}
	cfgE := base
	cfgE.Trace = tr
	_, eb, _ := serveBoth(t, base, cfgE, rec, bob)
	if eb.Stats != rb.Stats {
		t.Fatal("trace-recorded stream: stats diverge at a replaying evaluator")
	}
	for i := range rb.Outputs {
		if eb.Outputs[i] != rb.Outputs[i] {
			t.Fatalf("trace-recorded stream: output %d differs at a replaying evaluator", i)
		}
	}
}

// TestRecordServeOutputModes runs the decode phase of a served stream
// under every output mode against the live run's outputs.
func TestRecordServeOutputModes(t *testing.T) {
	for _, mode := range []OutputMode{OutputBoth, OutputGarblerOnly, OutputEvaluatorOnly} {
		base, alice, bob := multiCycleConfig(t, 2)
		base.Outputs = mode
		ra, rb, _ := runBothAsym(t, base, base, alice, bob, 5)

		rec, _, err := RecordGarbler(context.Background(), base, alice, mrand.New(mrand.NewSource(5)))
		if err != nil {
			t.Fatalf("mode %v: record: %v", mode, err)
		}
		sa, sb, _ := serveBoth(t, base, base, rec, bob)
		if len(sa.Outputs) != len(ra.Outputs) || len(sb.Outputs) != len(rb.Outputs) {
			t.Fatalf("mode %v: output lengths diverge (%d/%d vs %d/%d)",
				mode, len(sa.Outputs), len(sb.Outputs), len(ra.Outputs), len(rb.Outputs))
		}
		for i := range ra.Outputs {
			if sa.Outputs[i] != ra.Outputs[i] {
				t.Fatalf("mode %v: garbler output %d differs", mode, i)
			}
		}
		for i := range rb.Outputs {
			if sb.Outputs[i] != rb.Outputs[i] {
				t.Fatalf("mode %v: evaluator output %d differs", mode, i)
			}
		}
	}
}

// TestRecordServeHalted pins the halt edge: a recorded stream of a
// program that raises its stop flag mid-budget must carry exactly the
// frames up to the halt, for batch sizes that do and do not divide the
// halted cycle count.
func TestRecordServeHalted(t *testing.T) {
	for _, batch := range []int{1, 4} {
		cfg, alice, bob := haltingConfig(t, batch)
		ra, rb, want := runBothAsym(t, cfg, cfg, alice, bob, 3)
		if !ra.Halted {
			t.Fatalf("batch %d: live run did not halt", batch)
		}

		rec, _, err := RecordGarbler(context.Background(), cfg, alice, mrand.New(mrand.NewSource(3)))
		if err != nil {
			t.Fatalf("batch %d: record: %v", batch, err)
		}
		if !rec.Halted() {
			t.Fatalf("batch %d: recorded stream does not carry the halt", batch)
		}
		sa, sb, got := serveBoth(t, cfg, cfg, rec, bob)
		if !sa.Halted || !sb.Halted {
			t.Fatalf("batch %d: served session did not halt", batch)
		}
		if len(got) != len(want) {
			t.Fatalf("batch %d: served %d frames, live sent %d", batch, len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(want[i], got[i]) {
				t.Fatalf("batch %d: frame %d differs across the halt edge", batch, i)
			}
		}
		for i := range rb.Outputs {
			if sb.Outputs[i] != rb.Outputs[i] {
				t.Fatalf("batch %d: output %d differs", batch, i)
			}
		}
	}
}

// TestServeRecordedSessionMismatch: a stream garbled for one option set
// must be refused — before any byte moves — by a config digesting to a
// different session id.
func TestServeRecordedSessionMismatch(t *testing.T) {
	cfg1, alice, _ := multiCycleConfig(t, 1)
	rec, _, err := RecordGarbler(context.Background(), cfg1, alice, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg8 := cfg1
	cfg8.CycleBatch = 8
	ca, cb := net.Pipe()
	defer ca.Close()
	defer cb.Close()
	if _, err := ServeRecorded(context.Background(), ca, cfg8, rec); err == nil ||
		!strings.Contains(err.Error(), "different session") {
		t.Fatalf("mismatched config accepted the stream: %v", err)
	}
}
