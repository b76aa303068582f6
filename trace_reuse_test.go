package arm2gc

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

// TestSessionTraceReuseLocal pins the WithTraceReuse lifecycle in
// process: the first Run records the classification trace, later Runs
// replay it (no SkipGate pass), Count is served from the cache, and the
// outputs and cost accounting never change.
func TestSessionTraceReuseLocal(t *testing.T) {
	eng := NewEngine()
	prog := compileAdd(t)
	mk := func() *Session {
		s, err := eng.Session(prog, WithMaxCycles(10_000), WithTraceReuse())
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	first, err := mk().Run(context.Background(), []uint32{40}, []uint32{2})
	if err != nil {
		t.Fatal(err)
	}
	if first.Outputs[0] != 42 || first.Outputs[1] != 40 {
		t.Fatalf("first run outputs %v, want [42 40]", first.Outputs)
	}
	if eng.TraceRecordings() != 1 || eng.TraceReplays() != 0 {
		t.Fatalf("after first run: recordings %d replays %d, want 1 and 0",
			eng.TraceRecordings(), eng.TraceReplays())
	}

	second, err := mk().Run(context.Background(), []uint32{40}, []uint32{2})
	if err != nil {
		t.Fatal(err)
	}
	if eng.TraceReplays() != 1 {
		t.Fatalf("second run did not replay: replays = %d", eng.TraceReplays())
	}
	if second.Outputs[0] != first.Outputs[0] || second.Outputs[1] != first.Outputs[1] ||
		second.Cycles != first.Cycles || second.GarbledTables != first.GarbledTables {
		t.Fatalf("replayed run diverged: %+v vs %+v", second, first)
	}

	// Private inputs may change between replays — the schedule depends
	// only on public data.
	other, err := mk().Run(context.Background(), []uint32{7}, []uint32{35})
	if err != nil {
		t.Fatal(err)
	}
	if other.Outputs[0] != 42 || other.Outputs[1] != 35 {
		t.Fatalf("replay with fresh inputs: outputs %v, want [42 35]", other.Outputs)
	}
	if other.Cycles != first.Cycles || other.GarbledTables != first.GarbledTables {
		t.Fatal("replay with fresh inputs changed the cost accounting")
	}

	// Count is served straight from the cached trace.
	replays := eng.TraceReplays()
	ci, err := mk().Count(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ci.Cycles != first.Cycles || ci.GarbledTables != first.GarbledTables {
		t.Fatalf("cached Count %d cycles/%d tables, run had %d/%d",
			ci.Cycles, ci.GarbledTables, first.Cycles, first.GarbledTables)
	}
	if eng.TraceReplays() != replays+1 {
		t.Fatal("Count did not hit the trace cache")
	}

	// A different cycle budget is a different schedule — it must not
	// replay the cached trace.
	s2, err := eng.Session(prog, WithMaxCycles(9_999), WithTraceReuse())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Run(context.Background(), []uint32{1}, []uint32{2}); err != nil {
		t.Fatal(err)
	}
	if eng.TraceRecordings() != 2 {
		t.Fatalf("changed budget reused the trace: recordings = %d, want 2", eng.TraceRecordings())
	}

	// Cross-check the replayed outputs against native execution.
	if _, err := eng.Verify(context.Background(), prog, []uint32{40}, []uint32{2},
		WithMaxCycles(10_000), WithTraceReuse()); err != nil {
		t.Fatal(err)
	}
}

// TestSessionTraceReuseConcurrent races N first runs of one program: the
// recording must singleflight (exactly one SkipGate pass records; the
// rest classify without recording, never blocking), and every later run
// replays. Run under -race in CI.
func TestSessionTraceReuseConcurrent(t *testing.T) {
	eng := NewEngine()
	prog := compileAdd(t)
	const n = 8
	run := func(i int) error {
		sess, err := eng.Session(prog, WithMaxCycles(10_000), WithTraceReuse())
		if err != nil {
			return err
		}
		a, b := uint32(100+i), uint32(i)
		info, err := sess.Run(context.Background(), []uint32{a}, []uint32{b})
		if err != nil {
			return err
		}
		if info.Outputs[0] != a+b || info.Outputs[1] != a {
			return fmt.Errorf("run %d: outputs %v, want [%d %d]", i, info.Outputs, a+b, a)
		}
		return nil
	}
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = run(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := eng.TraceRecordings(); got != 1 {
		t.Fatalf("%d concurrent first runs recorded %d traces, want exactly 1", n, got)
	}
	replays := eng.TraceReplays()
	for i := 0; i < n; i++ {
		if err := run(i); err != nil {
			t.Fatal(err)
		}
	}
	if got := eng.TraceReplays(); got != replays+n {
		t.Fatalf("%d warm runs produced %d replays", n, got-replays)
	}
}

// TestSessionTraceReuseNetworked drives two-party sessions sharing one
// Engine: the first pair records (one side wins the slot), the second
// pair replays on both roles, and outputs stay identical.
func TestSessionTraceReuseNetworked(t *testing.T) {
	eng := NewEngine()
	prog := compileAdd(t)
	mk := func(opts ...Option) *Session {
		s, err := eng.Session(prog,
			append([]Option{WithMaxCycles(10_000), WithTraceReuse()}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	ga, ev := runTwoParty(t, mk(), mk(), []uint32{30}, []uint32{12})
	if ga.Outputs[0] != 42 || ev.Outputs[0] != 42 {
		t.Fatalf("cold pair outputs %v / %v", ga.Outputs, ev.Outputs)
	}
	if got := eng.TraceRecordings(); got != 1 {
		t.Fatalf("cold pair recorded %d traces, want 1 (singleflight across roles)", got)
	}

	ga2, ev2 := runTwoParty(t, mk(), mk(), []uint32{30}, []uint32{12})
	if eng.TraceReplays() < 2 {
		t.Fatalf("warm pair replays = %d, want both roles served", eng.TraceReplays())
	}
	if ga2.Outputs[0] != ga.Outputs[0] || ev2.Outputs[0] != ev.Outputs[0] {
		t.Fatal("replayed pair outputs diverged")
	}
	if ga2.GarbledTables != ga.GarbledTables || ga2.TableFrames != ga.TableFrames ||
		ga2.Cycles != ga.Cycles {
		t.Fatalf("replayed pair cost diverged: %+v vs %+v", ga2, ga)
	}
}

// TestSessionTraceReuseStatsSink pins that a replayed run still streams
// per-cycle stats: the sink fires once per cycle, in order, with the
// same stats the recording run reported.
func TestSessionTraceReuseStatsSink(t *testing.T) {
	eng := NewEngine()
	prog := compileAdd(t)
	collect := func() []CycleUpdate {
		var ups []CycleUpdate
		s, err := eng.Session(prog, WithMaxCycles(10_000), WithTraceReuse(),
			WithStatsSink(func(u CycleUpdate) { ups = append(ups, u) }))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(context.Background(), []uint32{40}, []uint32{2}); err != nil {
			t.Fatal(err)
		}
		return ups
	}
	rec := collect()
	if eng.TraceRecordings() != 1 {
		t.Fatalf("recordings = %d, want 1", eng.TraceRecordings())
	}
	rep := collect()
	if eng.TraceReplays() != 1 {
		t.Fatalf("replays = %d, want 1", eng.TraceReplays())
	}
	if len(rep) != len(rec) {
		t.Fatalf("replay sink fired %d times, recording %d", len(rep), len(rec))
	}
	for i := range rec {
		if rep[i] != rec[i] {
			t.Fatalf("cycle %d stats differ under replay: %+v vs %+v", i+1, rep[i], rec[i])
		}
	}
}
