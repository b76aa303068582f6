package core

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"arm2gc/internal/circuit/circtest"
	"arm2gc/internal/gc"
	"arm2gc/internal/sim"
)

// TestKernelDifferential checks the one gate-execution kernel against
// plaintext on random netlists: a live run decodes to the simulator's
// outputs; a replay of the trace that run recorded garbles the same number
// of tables with the same per-cycle statistics and decodes to the same
// outputs; and the schedule-only Count reports the executed run's totals.
func TestKernelDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	ctx := context.Background()
	for trial := 0; trial < 25; trial++ {
		c, aBits, bBits := circtest.Random(rng, 60+rng.Intn(900), 4+rng.Intn(30))
		in := sim.Inputs{
			Public: circtest.RandBits(rng, c.PublicBits),
			Alice:  circtest.RandBits(rng, aBits),
			Bob:    circtest.RandBits(rng, bBits),
		}
		cycles := 1 + rng.Intn(6)
		perCycle := func(dst *[]CycleStats) func(int, CycleStats) {
			return func(_ int, cs CycleStats) { *dst = append(*dst, cs) }
		}

		var liveCycles []CycleStats
		live, err := RunLocal(ctx, c, in, RunOpts{Cycles: cycles, Record: true, Sink: perCycle(&liveCycles)})
		if err != nil {
			t.Fatalf("trial %d: live run: %v", trial, err)
		}
		want := sim.Run(c, in, cycles)
		for i := range want {
			if live.Outputs[i] != want[i] {
				t.Fatalf("trial %d: output %d: live %v, plaintext %v", trial, i, live.Outputs[i], want[i])
			}
		}

		var replayCycles []CycleStats
		replay, err := RunLocal(ctx, c, in, RunOpts{Cycles: cycles, Trace: live.Trace, Sink: perCycle(&replayCycles)})
		if err != nil {
			t.Fatalf("trial %d: replay run: %v", trial, err)
		}
		for i := range want {
			if replay.Outputs[i] != want[i] {
				t.Fatalf("trial %d: output %d: replay %v, plaintext %v", trial, i, replay.Outputs[i], want[i])
			}
		}
		if replay.Stats != live.Stats {
			t.Fatalf("trial %d: replay stats %+v, live %+v", trial, replay.Stats, live.Stats)
		}
		if len(liveCycles) != cycles || len(replayCycles) != cycles {
			t.Fatalf("trial %d: sinks saw %d live and %d replayed cycles, want %d", trial, len(liveCycles), len(replayCycles), cycles)
		}
		for cyc := 1; cyc <= cycles; cyc++ {
			if replayCycles[cyc-1] != liveCycles[cyc-1] {
				t.Fatalf("trial %d: cycle %d: replay stats %+v, live %+v", trial, cyc, replayCycles[cyc-1], liveCycles[cyc-1])
			}
			if got := live.Trace.Cycle(cyc).NumTables(); got != liveCycles[cyc-1].Garbled {
				t.Fatalf("trial %d: cycle %d: trace holds %d garble ops, live run garbled %d", trial, cyc, got, liveCycles[cyc-1].Garbled)
			}
		}

		counted, err := Count(ctx, c, in.Public, CountOpts{Cycles: cycles})
		if err != nil {
			t.Fatalf("trial %d: count: %v", trial, err)
		}
		if counted != live.Stats {
			t.Fatalf("trial %d: Count %+v, executed run %+v", trial, counted, live.Stats)
		}
	}
}

// TestKernelTableStreamBounds: the evaluator's kernel refuses a cycle whose
// table stream is short, and hands back what a padded stream left over so
// the caller's "unconsumed tables" check can fire.
func TestKernelTableStreamBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		c, aBits, bBits := circtest.Random(rng, 300, 12)
		in := sim.Inputs{
			Public: circtest.RandBits(rng, c.PublicBits),
			Alice:  circtest.RandBits(rng, aBits),
			Bob:    circtest.RandBits(rng, bBits),
		}
		s := NewScheduler(c, Seed{}, in.Public)
		g := NewGarbler(s, rand.New(rand.NewSource(1)))
		e := NewEvaluator(s)
		if err := deliverInputs(g, e, in); err != nil {
			t.Fatal(err)
		}
		s.Classify(true)
		tables := g.GarbleCycle(nil)
		if len(tables) == 0 {
			continue
		}
		if _, err := e.EvalCycle(tables[:len(tables)-1]); err == nil || !strings.Contains(err.Error(), "table stream exhausted") {
			t.Fatalf("truncated stream: got %v, want a table-stream-exhausted error", err)
		}
		rest, err := e.EvalCycle(append(tables, gc.Table{}))
		if err != nil || len(rest) != 1 {
			t.Fatalf("padded stream: %d tables left over, err %v; want 1, nil", len(rest), err)
		}
		return
	}
	t.Fatal("no random netlist garbled a table in its first cycle")
}
