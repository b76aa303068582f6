package core

import (
	"bytes"
	"context"
	"errors"
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

// TestRunLocalTraceRecordReplay compiles a trace beside a live RunLocal
// and replays it under different label randomness and a different
// fingerprint seed: outputs, statistics (the live run's, plus the tables
// the liveness pass dropped) and memory accounting must line up — the
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
			Cycles: cycles, Seed: Seed{9}, Rand: rand.New(rand.NewSource(1)),
		})
		if err != nil {
			t.Fatalf("trial %d: live run: %v", trial, err)
		}
		tr := compileRun(t, c, pub, RunOpts{Cycles: cycles, Seed: Seed{9}})
		if tr.MemoryBytes() <= 0 {
			t.Fatalf("trial %d: trace reports %d bytes", trial, tr.MemoryBytes())
		}
		if got := tr.TotalStats(); got != pruned(recorded.Stats, tr) {
			t.Fatalf("trial %d: trace stats %+v, run stats %+v", trial, got, recorded.Stats)
		}
		replayed, err := RunLocal(ctx, c, in, RunOpts{
			Cycles: cycles, Seed: Seed{42}, Rand: rand.New(rand.NewSource(2)), Trace: tr,
		})
		if err != nil {
			t.Fatalf("trial %d: replay run: %v", trial, err)
		}
		if replayed.Stats != pruned(recorded.Stats, tr) {
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

// TestRunLocalTraceRecordExclusive pins the RecordEveryCycle×Trace guard:
// a replayed run knows only the final cycle's output states, so it cannot
// decode the outputs after every cycle.
func TestRunLocalTraceRecordExclusive(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c, aBits, bBits := circtest.Random(rng, 120, 4)
	in := sim.Inputs{
		Public: circtest.RandBits(rng, c.PublicBits),
		Alice:  circtest.RandBits(rng, aBits),
		Bob:    circtest.RandBits(rng, bBits),
	}
	tr := compileRun(t, c, in.Public, RunOpts{Cycles: 2})
	if _, err := RunLocal(context.Background(), c, in, RunOpts{Cycles: 2, RecordEveryCycle: true, Trace: tr}); err == nil {
		t.Fatalf("RecordEveryCycle together with Trace succeeded; want error")
	}
}

// compileRun compiles the trace of the run opts describes, unbounded.
func compileRun(t testing.TB, c *circuit.Circuit, pub []bool, opts RunOpts) *Trace {
	t.Helper()
	tr, err := Compile(context.Background(), c, pub,
		CountOpts{Cycles: opts.Cycles, StopOutput: opts.StopOutput, Seed: opts.Seed}, nil)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return tr
}

// TestTraceRecordBudget pins the compile's metering: the recorder asks
// its budget for every byte the trace holds, so a budget the whole trace
// fits keeps it at exactly the bytes granted, while one that refuses
// partway (or right at the output snapshot, the last request) stops the
// compile with ErrTraceBudget — no trace, and no request after the
// refusal. The kept trace replays to the live run's outputs and
// statistics.
func TestTraceRecordBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	c, aBits, bBits := circtest.Random(rng, 400, 10)
	in := sim.Inputs{
		Public: circtest.RandBits(rng, c.PublicBits),
		Alice:  circtest.RandBits(rng, aBits),
		Bob:    circtest.RandBits(rng, bBits),
	}
	ctx := context.Background()
	// compile compiles under a budget of limit bytes and reports the bytes
	// it granted and the requests made after the first refusal.
	compile := func(limit int) (tr *Trace, granted, late int) {
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
		tr, err := Compile(ctx, c, in.Public, CountOpts{Cycles: 8}, budget)
		if (tr == nil) != errors.Is(err, ErrTraceBudget) || (tr == nil && err == nil) {
			t.Fatalf("budget %d: trace %v, err %v", limit, tr != nil, err)
		}
		return tr, granted, late
	}
	full, err := RunLocal(ctx, c, in, RunOpts{Cycles: 8})
	if err != nil {
		t.Fatal(err)
	}
	size := compileRun(t, c, in.Public, RunOpts{Cycles: 8}).MemoryBytes()
	for _, tc := range []struct {
		limit int
		kept  bool
	}{{size, true}, {size - 1, false}, {size / 2, false}, {1, false}} {
		tr, granted, late := compile(tc.limit)
		if (tr != nil) != tc.kept || late != 0 {
			t.Fatalf("budget %d of a %d-byte trace: trace kept = %v (want %v), %d requests after the refusal",
				tc.limit, size, tr != nil, tc.kept, late)
		}
		if !tc.kept {
			continue
		}
		if granted != size || tr.MemoryBytes() != size {
			t.Fatalf("budget granted %d bytes to a trace of %d; want both %d", granted, tr.MemoryBytes(), size)
		}
		res, err := RunLocal(ctx, c, in, RunOpts{Cycles: 8, Trace: tr})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats != pruned(full.Stats, tr) || !slices.Equal(res.Outputs, full.Outputs) {
			t.Fatalf("budget %d: replay diverged from the live run", tc.limit)
		}
	}
}

// pruned returns a live run's statistics as a replay of tr reports them:
// the same per-cycle outcome, plus the tables tr's liveness pass dropped.
func pruned(live Stats, tr *Trace) Stats {
	live.Dropped = tr.TotalStats().Dropped
	return live
}

// liveAfterCommits reruns the liveness pass over an already pruned tr and
// returns, per cycle, the slots live once its flip-flop commit has run:
// the labels a later op, commit or output reads. The rerun must drop
// nothing — the pass is idempotent — and leaves tr as it was.
func liveAfterCommits(t testing.TB, tr *Trace) [][]bool {
	t.Helper()
	out := make([][]bool, tr.NumCycles())
	tr.walk(func(c int, ct *CycleTrace, p *pruner) {
		if p.dropC != 0 || p.dropG != 0 {
			t.Fatalf("cycle %d: a second liveness pass drops %d copies and %d tables", c+1, p.dropC, p.dropG)
		}
		if c > 0 {
			out[c-1] = slices.Clone(p.live)
		}
	})
	return out
}

// CompileUnpruned is Compile without the liveness pass: the trace as the
// recorder finished it, every per-cycle survivor still garbled.
func CompileUnpruned(tb testing.TB, c *circuit.Circuit, pub []bool, opts CountOpts) *Trace {
	tb.Helper()
	tr, err := record(context.Background(), c, pub, opts, nil)
	if err != nil {
		tb.Fatalf("compile: %v", err)
	}
	return tr
}

// Pruned returns a copy of an unpruned tr (CompileUnpruned) after the
// liveness pass, as Compile would have returned it; tr is left as it was.
func Pruned(tr *Trace) *Trace {
	cp := *tr
	cp.cycles = make([]*CycleTrace, len(tr.cycles))
	for i, ct := range tr.cycles {
		cp.cycles[i] = ct.clone()
	}
	cp.prune()
	return &cp
}

// WithoutTable returns a copy of tr whose cycle cyc lacks the garbled op
// of its k-th table, compacted and counted as the liveness pass compacts
// and counts a dropped op; tr is left as it was.
func WithoutTable(tr *Trace, cyc, k int) *Trace {
	cp := *tr
	cp.cycles = slices.Clone(tr.cycles)
	ct := tr.cycles[cyc-1].clone()
	p := &pruner{keepC: make([]bool, len(ct.copyAct)), keepG: make([]bool, len(ct.garbKind))}
	for i := range p.keepC {
		p.keepC[i] = true
	}
	for i, t := range ct.garbSlot {
		p.keepG[i] = int(t) != k
	}
	p.compact(ct)
	ct.Dropped++
	cp.cycles[cyc-1] = ct
	return &cp
}
