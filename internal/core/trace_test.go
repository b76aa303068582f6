package core

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"arm2gc/internal/circuit"
	"arm2gc/internal/circuit/circtest"
	"arm2gc/internal/sim"
)

// garbleRun captures everything observable about a garbler-side run: the
// per-cycle serialized table bytes and the per-cycle statistics.
type garbleRun struct {
	frames [][]byte
	stats  []CycleStats
}

// recordCycles runs scheduler+garbler for `cycles` cycles with deterministic
// label randomness while keeping the trace, returning the exact bytes each
// cycle would put on the wire and the recorded trace.
func recordCycles(t *testing.T, c *circuit.Circuit, pub []bool, cycles int, rndSeed int64) (garbleRun, *Trace) {
	t.Helper()
	s := NewScheduler(c, Seed{1, 2, 3}, pub)
	g := NewGarbler(s, rand.New(rand.NewSource(rndSeed)))
	rec := NewTraceRecorder(s)
	var run garbleRun
	for cyc := 1; cyc <= cycles; cyc++ {
		cs := s.Classify(cyc == cycles)
		rec.RecordCycle(cs, false)
		run.stats = append(run.stats, cs)
		run.frames = append(run.frames, g.GarbleCycleTraceAppend(&s.ct, cyc, nil))
		g.CopyDFFs()
		s.Commit()
	}
	return run, rec.Finish(false)
}

// TestTraceReplayByteIdentical: a recorded trace is a copy of the
// scheduler's per-cycle buffer, so replaying it with the same label
// randomness must emit exactly the bytes the live run emitted, cycle for
// cycle — after the scheduler has long since overwritten that buffer — and
// report the live run's statistics.
func TestTraceReplayByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 10; trial++ {
		c, _, _ := circtest.Random(rng, 100+rng.Intn(900), 5+rng.Intn(30))
		pub := circtest.RandBits(rng, c.PublicBits)
		const cycles = 6
		classified, tr := recordCycles(t, c, pub, cycles, 4321)
		if err := tr.Validate(cycles); err != nil {
			t.Fatalf("trial %d: Validate: %v", trial, err)
		}
		g := NewReplayGarbler(c, rand.New(rand.NewSource(4321)))
		for cyc := 1; cyc <= cycles; cyc++ {
			ct := tr.Cycle(cyc)
			if ct.Stats != classified.stats[cyc-1] {
				t.Fatalf("trial %d: cycle %d stats differ: trace %+v classified %+v",
					trial, cyc, ct.Stats, classified.stats[cyc-1])
			}
			frame := g.GarbleCycleTraceAppend(ct, cyc, nil)
			if !bytes.Equal(frame, classified.frames[cyc-1]) {
				t.Fatalf("trial %d: cycle %d replay bytes differ (%d vs %d bytes)",
					trial, cyc, len(frame), len(classified.frames[cyc-1]))
			}
			if ct.NumTables()*32 != len(frame) {
				t.Fatalf("trial %d: cycle %d NumTables %d does not match %d frame bytes",
					trial, cyc, ct.NumTables(), len(frame))
			}
			g.CopyDFFs()
		}
	}
}

// TestRunLocalTraceRecordReplay records a trace through RunLocal and
// replays it under different label randomness and a different fingerprint
// seed: outputs, statistics and memory accounting must line up — the
// cross-session reuse the Engine's trace cache is built on.
func TestRunLocalTraceRecordReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	ctx := context.Background()
	for trial := 0; trial < 8; trial++ {
		c, aBits, bBits := circtest.Random(rng, 80+rng.Intn(600), 3+rng.Intn(20))
		pub := circtest.RandBits(rng, c.PublicBits)
		in := sim.Inputs{
			Public: pub,
			Alice:  circtest.RandBits(rng, aBits),
			Bob:    circtest.RandBits(rng, bBits),
		}
		const cycles = 5
		recorded, err := RunLocal(ctx, c, in, RunOpts{
			Cycles: cycles, Seed: Seed{9}, Rand: rand.New(rand.NewSource(1)), Record: true,
		})
		if err != nil {
			t.Fatalf("trial %d: record run: %v", trial, err)
		}
		if recorded.Trace == nil {
			t.Fatalf("trial %d: Record set but no trace returned", trial)
		}
		if recorded.Trace.MemoryBytes() <= 0 {
			t.Fatalf("trial %d: trace reports %d bytes", trial, recorded.Trace.MemoryBytes())
		}
		if got := recorded.Trace.TotalStats(); got != recorded.Stats {
			t.Fatalf("trial %d: trace stats %+v, run stats %+v", trial, got, recorded.Stats)
		}
		replayed, err := RunLocal(ctx, c, in, RunOpts{
			Cycles: cycles, Seed: Seed{42}, Rand: rand.New(rand.NewSource(2)), Trace: recorded.Trace,
		})
		if err != nil {
			t.Fatalf("trial %d: replay run: %v", trial, err)
		}
		if replayed.Stats != recorded.Stats {
			t.Fatalf("trial %d: replay stats %+v, recorded %+v", trial, replayed.Stats, recorded.Stats)
		}
		if len(replayed.Outputs) != len(recorded.Outputs) {
			t.Fatalf("trial %d: replay %d outputs, recorded %d", trial, len(replayed.Outputs), len(recorded.Outputs))
		}
		for i := range recorded.Outputs {
			if replayed.Outputs[i] != recorded.Outputs[i] {
				t.Fatalf("trial %d: output %d differs under replay", trial, i)
			}
		}
	}
}

// TestTraceValidate pins the budget guard: a trace only replays under the
// exact cycle budget it was recorded with.
func TestTraceValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	c, _, _ := circtest.Random(rng, 200, 8)
	pub := circtest.RandBits(rng, c.PublicBits)
	_, tr := recordCycles(t, c, pub, 4, 1)
	if err := tr.Validate(4); err != nil {
		t.Fatalf("Validate(4): %v", err)
	}
	if err := tr.Validate(3); err == nil {
		t.Fatalf("Validate(3) accepted a 4-cycle non-halted trace")
	}
	if err := tr.Validate(5); err == nil {
		t.Fatalf("Validate(5) accepted a trace recorded under budget 4")
	}
	if err := (&Trace{}).Validate(1); err == nil {
		t.Fatalf("Validate accepted an empty trace")
	}
}

// TestRunLocalTraceRecordExclusive pins the Record×Trace guard.
func TestRunLocalTraceRecordExclusive(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c, aBits, bBits := circtest.Random(rng, 120, 4)
	in := sim.Inputs{
		Public: circtest.RandBits(rng, c.PublicBits),
		Alice:  circtest.RandBits(rng, aBits),
		Bob:    circtest.RandBits(rng, bBits),
	}
	res, err := RunLocal(context.Background(), c, in, RunOpts{Cycles: 2, Record: true})
	if err != nil {
		t.Fatalf("record run: %v", err)
	}
	if _, err := RunLocal(context.Background(), c, in, RunOpts{Cycles: 2, Record: true, Trace: res.Trace}); err == nil {
		t.Fatalf("Record together with Trace succeeded; want error")
	}
}
