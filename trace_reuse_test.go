package arm2gc

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"arm2gc/internal/bencher"
)

// TestSessionTraceReuseLocal pins the trace-reuse lifecycle every session
// runs, with no option set, in process: the first Run records the
// classification trace, later Runs replay it (no SkipGate pass), Count is
// served from the cache, and the outputs and cost accounting never
// change.
func TestSessionTraceReuseLocal(t *testing.T) {
	eng := NewEngine()
	prog := compileAdd(t)
	mk := func() *Session {
		s, err := eng.Session(prog, WithMaxCycles(10_000))
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
	s2, err := eng.Session(prog, WithMaxCycles(9_999))
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
		WithMaxCycles(10_000)); err != nil {
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
		sess, err := eng.Session(prog, WithMaxCycles(10_000))
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
			append([]Option{WithMaxCycles(10_000)}, opts...)...)
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
		s, err := eng.Session(prog, WithMaxCycles(10_000),
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

// TestWithTraceReuseIsNoOp pins the deprecated option as a no-op: the same
// runs on a fresh Engine with and without it report identical RunInfos
// and identical Engine counters.
func TestWithTraceReuseIsNoOp(t *testing.T) {
	prog := compileAdd(t)
	ctx := context.Background()
	runs := func(opts ...Option) ([]*RunInfo, [4]int64) {
		eng := NewEngine()
		var infos []*RunInfo
		for _, in := range [][2]uint32{{40, 2}, {7, 35}} {
			s, err := eng.Session(prog, append([]Option{WithMaxCycles(10_000)}, opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			info, err := s.Run(ctx, []uint32{in[0]}, []uint32{in[1]})
			if err != nil {
				t.Fatal(err)
			}
			if info, err = s.Count(ctx); err != nil {
				t.Fatal(err)
			}
			infos = append(infos, info)
		}
		return infos, [...]int64{eng.Builds(), eng.TraceRecordings(), eng.TraceReplays(), eng.traces.Uncacheable()}
	}
	plain, plainCounters := runs()
	opted, optedCounters := runs(WithTraceReuse())
	if !reflect.DeepEqual(plain, opted) {
		t.Fatalf("RunInfos differ with WithTraceReuse: %+v vs %+v", opted, plain)
	}
	if plainCounters != optedCounters {
		t.Fatalf("Engine counters (builds, recordings, replays, uncacheable) %v with WithTraceReuse, %v without",
			optedCounters, plainCounters)
	}
	if want := [...]int64{1, 1, 3, 0}; plainCounters != want {
		t.Fatalf("Engine counters %v, want %v: one recording, then every run and Count replays", plainCounters, want)
	}
}

// recorderChildEnv marks the child process TestSessionTraceRecorderBounded
// measures in.
const recorderChildEnv = "ARM2GC_RECORDER_BOUNDED_CHILD"

// TestSessionTraceRecorderBounded runs three sessions of a program whose
// trace is four times the Engine's trace budget. The first claims the
// recording, drops it once the cache refuses its next cycle and leaves a
// tombstone; the other two classify without recording. Outputs stay
// correct, and the heap held by the recorder never exceeds the budget plus
// one cycle. It is measured after every cycle as the live heap over that
// of the same run with no recorder at all (its recording slot held
// elsewhere); one cycle is the largest step an unbounded recording of the
// run takes before it reaches the budget.
//
// The heap is the whole process's, so the measuring runs in a child
// process of the test binary that runs this test alone, with spare
// threads started first: neither an allocation another test left behind
// nor a thread the runtime starts can land between two readings.
func TestSessionTraceRecorderBounded(t *testing.T) {
	if os.Getenv(recorderChildEnv) == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestSessionTraceRecorderBounded$", "-test.count=1", "-test.v")
		cmd.Env = append(os.Environ(), recorderChildEnv+"=1")
		out, err := cmd.CombinedOutput()
		if err != nil || !bytes.Contains(out, []byte("--- PASS: TestSessionTraceRecorderBounded")) {
			t.Fatalf("measuring child process: %v\n%s", err, out)
		}
		return
	}
	startIdleThreads(4)
	prog := compileAdd(t)
	ctx := context.Background()
	// Two collections: garbage with a finalizer (an earlier test's
	// connections) is freed only by the second, and one left over would
	// shift the whole baseline by its size.
	liveHeap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	// run returns the session's outputs and the live heap after each
	// cycle, relative to the first.
	run := func(eng *Engine, hold bool, a, b uint32) ([]uint32, []int64) {
		var growth []int64
		var base int64
		s, err := eng.Session(prog, WithMaxCycles(10_000), WithStatsSink(func(u CycleUpdate) {
			h := liveHeap()
			if u.Cycle == 1 {
				base = h
			}
			growth = append(growth, h-base)
		}))
		if err != nil {
			t.Fatal(err)
		}
		if hold {
			pub, err := s.m.cpu.PublicBits(prog)
			if err != nil {
				t.Fatal(err)
			}
			if !eng.traces.BeginRecord(s.traceKey(pub)) {
				t.Fatal("could not hold the recording slot")
			}
		}
		info, err := s.Run(ctx, []uint32{a}, []uint32{b})
		if err != nil {
			t.Fatal(err)
		}
		return info.Outputs, growth
	}
	// held is the heap a recording holds after each cycle of a run.
	_, bare := run(NewEngine(), true, 40, 2)
	held := func(growth []int64) []int64 {
		if len(growth) != len(bare) {
			t.Fatalf("run of %d cycles, bare run %d", len(growth), len(bare))
		}
		out := make([]int64, len(growth))
		for i := range growth {
			out[i] = growth[i] - bare[i]
		}
		return out
	}

	ref := NewEngine()
	_, refGrowth := run(ref, false, 40, 2)
	refHeld := held(refGrowth)
	budget := ref.traces.Bytes() / 4
	var cycle int64
	for i := 1; i < len(refHeld) && refHeld[i-1] <= budget; i++ {
		cycle = max(cycle, refHeld[i]-refHeld[i-1])
	}
	if slices.Max(refHeld) < 2*(budget+cycle) {
		t.Fatalf("unbounded recording holds at most %d bytes: too small against budget %d + one cycle %d",
			slices.Max(refHeld), budget, cycle)
	}

	eng := newEngine(budget)
	for i, in := range [][2]uint32{{40, 2}, {7, 35}, {1000, 24}} {
		out, growth := run(eng, false, in[0], in[1])
		if want := in[0] + in[1]; out[0] != want || out[1] != max(in[0], in[1]) {
			t.Fatalf("session %d: outputs %v, want [%d %d]", i+1, out, want, max(in[0], in[1]))
		}
		if peak := slices.Max(held(growth)); peak > budget+cycle {
			t.Fatalf("session %d: the recorder held %d bytes, want at most budget %d + one cycle %d",
				i+1, peak, budget, cycle)
		}
	}
	if got := eng.TraceRecordings(); got != 1 {
		t.Fatalf("recordings = %d, want 1: the tombstone must stop re-recording", got)
	}
	if eng.traces.Uncacheable() != 1 || eng.TraceReplays() != 0 {
		t.Fatalf("uncacheable %d, replays %d, want 1 and 0", eng.traces.Uncacheable(), eng.TraceReplays())
	}
	if got := eng.traces.Bytes(); got <= 0 || got > budget/4 {
		t.Fatalf("cache charges %d bytes for the tombstone", got)
	}
}

// startIdleThreads makes the runtime start n more OS threads and leaves
// them idle for it to use. The runtime starts a thread when it wakes a
// processor and finds no idle thread, at moments that vary from run to
// run (a forced collection's restart is one), and each thread's runtime
// state stays on the heap for good: 5,504 B with Go 1.24 on linux/amd64.
// One started between two readings of the live heap reads as 5.5 KB held
// by whatever the test measures. Each of the n goroutines wires itself to
// a thread until all are wired, so each needs a thread of its own;
// unwired, the threads stay with the runtime.
func startIdleThreads(n int) {
	var wired, done sync.WaitGroup
	release := make(chan struct{})
	for i := 0; i < n; i++ {
		wired.Add(1)
		done.Add(1)
		go func() {
			defer done.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			wired.Done()
			<-release
		}()
	}
	wired.Wait()
	close(release)
	done.Wait()
}

// TestSessionTraceRecordingsShareBudget runs eight sessions at once, each
// with its own cycle budget and so its own trace key and recording slot,
// on an Engine whose trace budget fits two and a half of the program's
// traces. All eight stop together after their last cycle, holding
// whatever they recorded, and the live heap is measured there against
// the same eight sessions with no recorder (their slots held elsewhere).
// The recordings in flight must hold no more than the budget between
// them, where eight unbounded ones would hold three times as much (the
// cache's charge exactly, the heap within the slack of its estimate); the
// sessions refused room must leave no tombstone, and outputs stay
// correct.
func TestSessionTraceRecordingsShareBudget(t *testing.T) {
	prog := compileAdd(t)
	ctx := context.Background()
	const n = 8
	ref := NewEngine()
	s, err := ref.Session(prog, WithMaxCycles(10_000))
	if err != nil {
		t.Fatal(err)
	}
	info, err := s.Run(ctx, []uint32{40}, []uint32{2})
	if err != nil {
		t.Fatal(err)
	}
	cycles, trace := info.Cycles, ref.traces.Bytes()
	budget := 2*trace + trace/2

	// run starts the n sessions, stops them all after their last cycle,
	// and reports the live heap there and the cache's charge.
	run := func(eng *Engine, hold bool) (heap, charged int64) {
		var arrived, done sync.WaitGroup
		release := make(chan struct{})
		sessions := make([]*Session, n)
		reached := make([]bool, n) // each written only by its session's goroutine
		for i := range sessions {
			s, err := eng.Session(prog, WithMaxCycles(10_000+i), WithStatsSink(func(u CycleUpdate) {
				if u.Cycle == cycles {
					reached[i] = true
					arrived.Done()
					<-release
				}
			}))
			if err != nil {
				t.Fatal(err)
			}
			if hold {
				pub, err := s.m.cpu.PublicBits(prog)
				if err != nil {
					t.Fatal(err)
				}
				if !eng.traces.BeginRecord(s.traceKey(pub)) {
					t.Fatal("could not hold the recording slot")
				}
			}
			sessions[i] = s
		}
		errs := make([]error, n)
		arrived.Add(n)
		done.Add(n)
		for i, s := range sessions {
			go func() {
				defer done.Done()
				a, b := uint32(100+i), uint32(i)
				info, err := s.Run(ctx, []uint32{a}, []uint32{b})
				if !reached[i] { // failed early: do not leave the others waiting
					arrived.Done()
				}
				if err == nil && (info.Outputs[0] != a+b || info.Outputs[1] != a) {
					err = fmt.Errorf("session %d: outputs %v, want [%d %d]", i, info.Outputs, a+b, a)
				}
				errs[i] = err
			}()
		}
		arrived.Wait()
		runtime.GC() // twice, as in TestSessionTraceRecorderBounded
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		heap, charged = int64(ms.HeapAlloc), eng.traces.Bytes()
		close(release)
		done.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		return heap, charged
	}
	bare, _ := run(newEngine(budget), true)
	eng := newEngine(budget)
	heap, charged := run(eng, false)
	t.Logf("%d sessions of %d cycles, %d-byte trace, budget %d: recorders hold %d bytes, cache charges %d",
		n, cycles, trace, budget, heap-bare, charged)
	if charged > budget {
		t.Errorf("the cache charges %d bytes for recordings in flight, past its budget %d", charged, budget)
	}
	// MemoryBytes approximates the heap: it leaves out the spare capacity
	// of each trace's growing cycle list, hence the quarter of slack.
	if heap-bare > budget+budget/4 {
		t.Errorf("recordings in flight hold %d bytes of heap, past the budget %d", heap-bare, budget)
	}
	if eng.TraceRecordings() != n || eng.traces.Uncacheable() != 0 {
		t.Errorf("recordings %d, uncacheable %d, want %d and 0", eng.TraceRecordings(), eng.traces.Uncacheable(), n)
	}
	if got := eng.traces.Bytes(); got > budget {
		t.Errorf("the cache holds %d bytes once the sessions end, past its budget %d", got, budget)
	}
}

// BenchmarkFirstContact prices a session on a trace key its Engine has
// not seen — a program's first session, or one under a fresh cycle budget
// — on Hamming(512), in process. "record" records the trace, as every
// such session now does; "classify" holds the recording slot elsewhere,
// so the session classifies without recording, which is all a session did
// before trace reuse became the default. Each iteration uses its own
// cycle budget, so each is a fresh key. Compare ns/op, B/op and allocs/op:
//
//	go test -run '^$' -bench FirstContact -benchmem -benchtime 8x .
func BenchmarkFirstContact(b *testing.B) {
	w := bencher.HammingWorkload(512)
	prog, _, err := w.Program()
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for _, record := range []bool{true, false} {
		name := map[bool]string{true: "record", false: "classify"}[record]
		b.Run(name, func(b *testing.B) {
			eng := NewEngine()
			for i := 0; i < b.N; i++ {
				s, err := eng.Session(prog, WithMaxCycles(DefaultMaxCycles-i))
				if err != nil {
					b.Fatal(err)
				}
				if !record {
					pub, err := s.m.cpu.PublicBits(prog)
					if err != nil {
						b.Fatal(err)
					}
					eng.traces.BeginRecord(s.traceKey(pub))
				}
				if _, err := s.Run(ctx, w.Alice, w.Bob); err != nil {
					b.Fatal(err)
				}
			}
			if kept := eng.traces.Bytes() > 0; kept != record {
				b.Fatalf("%s: traces kept = %v", name, kept)
			}
		})
	}
}
