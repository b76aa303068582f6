package proto

import (
	"bytes"
	"context"
	"testing"

	"arm2gc/internal/build"
	"arm2gc/internal/circuit"
	"arm2gc/internal/core"
	"arm2gc/internal/sim"
)

// compileTrace compiles cfg's classification trace, as a session's first
// contact does, with no peer and no label.
func compileTrace(tb testing.TB, cfg Config) *core.Trace {
	tb.Helper()
	tr, err := core.Compile(context.Background(), cfg.Circuit, cfg.Public,
		core.CountOpts{Cycles: cfg.Cycles, StopOutput: cfg.StopOutput}, nil)
	if err != nil {
		tb.Fatalf("compile: %v", err)
	}
	return tr
}

// TestTraceReplayByteIdenticalGrid: replayed sessions must put exactly
// the classified bytes on the wire for every cycle batch — with the
// garbler replaying against a classifying evaluator (trace reuse is a
// local knob) and with both roles replaying.
func TestTraceReplayByteIdenticalGrid(t *testing.T) {
	base, alice, bob := multiCycleConfig(t, 1)
	tr := compileTrace(t, base)

	for _, batch := range []int{1, 8} {
		cfg := base
		cfg.CycleBatch = batch

		// Classified reference at this grid point.
		ra, _, want := runBothAsym(t, cfg, cfg, alice, bob, 7)
		if len(want) == 0 {
			t.Fatalf("b%d: no reference frames", batch)
		}

		check := func(name string, gotRes *Result, got [][]byte) {
			t.Helper()
			if len(got) != len(want) {
				t.Fatalf("b%d %s: %d frames, classified sent %d", batch, name, len(got), len(want))
			}
			for i := range want {
				if !bytes.Equal(want[i], got[i]) {
					t.Fatalf("b%d %s: frame %d differs from classified", batch, name, i)
				}
			}
			if gotRes.Stats != ra.Stats {
				t.Fatalf("b%d %s: stats %+v, classified %+v", batch, name, gotRes.Stats, ra.Stats)
			}
			for i := range ra.Outputs {
				if gotRes.Outputs[i] != ra.Outputs[i] {
					t.Fatalf("b%d %s: output %d differs", batch, name, i)
				}
			}
		}

		// Garbler replays; evaluator classifies.
		gR := cfg
		gR.Trace = tr
		raR, _, got := runBothAsym(t, gR, cfg, alice, bob, 7)
		check("garbler-replay", raR, got)

		// Both roles replay.
		eR := cfg
		eR.Trace = tr
		raR2, rbR2, got2 := runBothAsym(t, gR, eR, alice, bob, 7)
		check("both-replay", raR2, got2)
		if rbR2.Stats != ra.Stats {
			t.Fatalf("b%d: replaying evaluator stats %+v, classified %+v", batch, rbR2.Stats, ra.Stats)
		}
	}
}

// haltingConfig builds an accumulator that raises a public done flag
// after 6 cycles, under a much larger budget — the trace must end at the
// recorded halt and the replayed frame boundaries must land exactly where
// the classified ones do.
func haltingConfig(t *testing.T, batch int) (Config, []bool, []bool) {
	t.Helper()
	b := build.New("haltacc")
	a := b.Input(circuit.Alice, "a", 8)
	x := b.Input(circuit.Bob, "x", 8)
	acc := b.Reg("acc", 8)
	acc.SetNext(b.Add(acc.Q(), b.XorBus(a, x)))
	b.Output("acc", acc.Q())
	cnt := b.Reg("cnt", 4)
	inc, _ := b.Inc(cnt.Q())
	cnt.SetNext(inc)
	done := b.Eq(cnt.Q(), build.ConstBus(5, 4))
	b.Output("done", build.Bus{done})
	c := b.MustCompile()
	cfg := Config{Circuit: c, Cycles: 100, StopOutput: "done", CycleBatch: batch}
	return cfg, sim.UnpackUint(0x5a, 8), sim.UnpackUint(0x21, 8)
}

// TestTraceReplayHalted pins replay across the halt edge for batch sizes
// that do and do not divide the halted cycle count.
func TestTraceReplayHalted(t *testing.T) {
	for _, batch := range []int{1, 4} {
		cfg, alice, bob := haltingConfig(t, batch)
		ra, rb, want := runBothAsym(t, cfg, cfg, alice, bob, 3)
		if !ra.Halted || !rb.Halted {
			t.Fatalf("batch %d: classified run did not halt", batch)
		}
		tr := compileTrace(t, cfg)
		if tr.NumCycles() != int(ra.Stats.Cycles) {
			t.Fatalf("batch %d: trace has %d cycles, run executed %d", batch, tr.NumCycles(), ra.Stats.Cycles)
		}
		if !tr.Halted() {
			t.Fatalf("batch %d: trace does not record the halt", batch)
		}

		gR, eR := cfg, cfg
		gR.Trace, eR.Trace = tr, tr
		raR, rbR, got := runBothAsym(t, gR, eR, alice, bob, 3)
		if !raR.Halted || !rbR.Halted {
			t.Fatalf("batch %d: replay did not halt", batch)
		}
		if len(got) != len(want) {
			t.Fatalf("batch %d: replay sent %d frames, classified %d", batch, len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(want[i], got[i]) {
				t.Fatalf("batch %d: frame %d differs under replay", batch, i)
			}
		}
		for i := range ra.Outputs {
			if raR.Outputs[i] != ra.Outputs[i] || rbR.Outputs[i] != rb.Outputs[i] {
				t.Fatalf("batch %d: output %d differs under replay", batch, i)
			}
		}
		if raR.Stats != ra.Stats || rbR.Stats != rb.Stats {
			t.Fatalf("batch %d: replay stats differ", batch)
		}
	}
}
