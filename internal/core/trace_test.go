package core

import (
	"bytes"
	"context"
	"math/rand"
	"slices"
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
			Cycles: cycles, Seed: Seed{9}, Rand: rand.New(rand.NewSource(1)), Record: Unbounded,
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
	res, err := RunLocal(context.Background(), c, in, RunOpts{Cycles: 2, Record: Unbounded})
	if err != nil {
		t.Fatalf("record run: %v", err)
	}
	if _, err := RunLocal(context.Background(), c, in, RunOpts{Cycles: 2, Record: Unbounded, Trace: res.Trace}); err == nil {
		t.Fatalf("Record together with Trace succeeded; want error")
	}
}

// TestTraceRecordBudget pins the recorder's metering: it asks its budget
// for every byte the trace holds, so a budget the whole trace fits keeps
// it at exactly the bytes granted, while one that refuses partway (or
// right at the output snapshot, the last request) drops the recording —
// no trace, and no request after the refusal — and the run itself decodes
// the same outputs with the same statistics.
func TestTraceRecordBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	c, aBits, bBits := circtest.Random(rng, 400, 10)
	in := sim.Inputs{
		Public: circtest.RandBits(rng, c.PublicBits),
		Alice:  circtest.RandBits(rng, aBits),
		Bob:    circtest.RandBits(rng, bBits),
	}
	ctx := context.Background()
	// run records under a budget of limit bytes and reports the bytes it
	// granted and the requests made after the first refusal.
	run := func(limit int) (res *RunResult, granted, late int) {
		refused := false
		budget := func(n int) bool {
			if refused {
				late++
			}
			if granted+n > limit {
				refused = true
				return false
			}
			granted += n
			return true
		}
		res, err := RunLocal(ctx, c, in, RunOpts{Cycles: 8, Record: budget})
		if err != nil {
			t.Fatal(err)
		}
		return res, granted, late
	}
	full, err := RunLocal(ctx, c, in, RunOpts{Cycles: 8, Record: Unbounded})
	if err != nil {
		t.Fatal(err)
	}
	size := full.Trace.MemoryBytes()
	for _, tc := range []struct {
		limit int
		kept  bool
	}{{size, true}, {size - 1, false}, {size / 2, false}, {1, false}} {
		res, granted, late := run(tc.limit)
		if (res.Trace != nil) != tc.kept || late != 0 {
			t.Fatalf("budget %d of a %d-byte trace: trace kept = %v (want %v), %d requests after the refusal",
				tc.limit, size, res.Trace != nil, tc.kept, late)
		}
		if tc.kept && (granted != size || res.Trace.MemoryBytes() != size) {
			t.Fatalf("budget granted %d bytes to a trace of %d; want both %d", granted, res.Trace.MemoryBytes(), size)
		}
		if res.Stats != full.Stats || !slices.Equal(res.Outputs, full.Outputs) {
			t.Fatalf("budget %d: run diverged from the unbounded recording", tc.limit)
		}
	}
}
