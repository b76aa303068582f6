package arm2gc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"arm2gc/internal/bencher"
	"arm2gc/internal/core"
	"arm2gc/internal/cpu"
	"arm2gc/internal/proto"
	"arm2gc/internal/wire"
)

// TestSessionTraceReuseLocal pins the trace-reuse lifecycle every session
// runs, with no option set, in process: the first Run compiles the
// classification trace and replays it, later Runs replay it (no SkipGate
// pass), Count is served from the cache, and the outputs and cost
// accounting never change.
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
// compile must singleflight (exactly one SkipGate pass compiles; the rest
// wait for it and replay), and every later run replays. Run under -race
// in CI.
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
// Engine: in the first pair one side compiles and the other waits for its
// compile, the second pair replays on both roles, and outputs stay
// identical.
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
		t.Fatalf("cold pair compiled %d traces, want 1 (singleflight across roles)", got)
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

// TestSessionTraceReuseStatsSink pins that a replayed run streams
// per-cycle stats: the sink fires once per cycle, in order, with the same
// stats on the run that compiled the trace (the compile itself reports
// none) as on a later run, and the same stats as a run classified live.
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
	eng = newEngine(1 << 10) // room for a tombstone, and no trace: Run classifies live
	live := collect()
	if eng.TraceRecordings() != 1 || eng.traces.Uncacheable() != 1 {
		t.Fatalf("a run on an Engine no trace fits: recordings %d, uncacheable %d; want 1 and 1",
			eng.TraceRecordings(), eng.traces.Uncacheable())
	}
	if len(rep) != len(rec) || len(live) != len(rec) {
		t.Fatalf("sinks fired %d times on the compiling run, %d on the replay, %d live", len(rec), len(rep), len(live))
	}
	for i := range rec {
		if rep[i] != rec[i] || live[i] != rec[i] {
			t.Fatalf("cycle %d stats differ: compiling run %+v, replay %+v, live %+v", i+1, rec[i], rep[i], live[i])
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
		t.Fatalf("Engine counters %v, want %v: one compile, then every later run and Count replays", plainCounters, want)
	}
}

// heapChildEnv marks the child process the heap-measuring tests below
// measure in.
const heapChildEnv = "ARM2GC_HEAP_CHILD"

// inChild reruns the test named name alone in a child process of the test
// binary and reports false, unless this is that child: the heap is the
// whole process's, so no allocation another test left behind may land
// between two readings.
func inChild(t *testing.T, name string) bool {
	if os.Getenv(heapChildEnv) != "" {
		return true
	}
	cmd := exec.Command(os.Args[0], "-test.run=^"+name+"$", "-test.count=1", "-test.v")
	cmd.Env = append(os.Environ(), heapChildEnv+"=1")
	out, err := cmd.CombinedOutput()
	if err != nil || !bytes.Contains(out, []byte("--- PASS: "+name)) {
		t.Fatalf("measuring child process: %v\n%s", err, out)
	}
	return false
}

// liveHeap reads the live heap after two collections: garbage with a
// finalizer (an earlier session's connections) is freed only by the
// second, and one left over would shift a baseline by its size.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// measured wraps a session's compiler so that every budget request —
// one per compiled cycle, then the output snapshot's — first calls at,
// with the request's 1-based index and the bytes the recorder asks for.
func measured(compile cpu.Compiler, at func(call, n int)) cpu.Compiler {
	return func(ctx context.Context, budget core.RecordBudget) (*core.Trace, error) {
		call := 0
		return compile(ctx, func(n int) bool {
			call++
			at(call, n)
			return budget(n)
		})
	}
}

// TestSessionTraceRecorderBounded compiles a program whose trace is four
// times the Engine's trace budget, through the cache call and the
// compiler its sessions use. The compile stops once the cache refuses its
// next cycle, fails with ErrTraceBudget and leaves a tombstone; then three
// in-process runs of the program classify live, compiling nothing.
// Outputs stay correct, and the heap
// held by the compile's recorder never exceeds the budget plus one cycle.
// It is measured at every budget request, before the request is granted,
// as the live heap over that at the first request: the scheduler's own
// arrays are all allocated by then, so what grows is the recording. One
// cycle is the largest step an unbounded compile of the program takes
// before it reaches the budget.
//
// The measuring runs in a child process of the test binary that runs
// this test alone, with spare threads started first, so that neither an
// allocation another test left behind nor a thread the runtime starts can
// land between two readings.
func TestSessionTraceRecorderBounded(t *testing.T) {
	if !inChild(t, "TestSessionTraceRecorderBounded") {
		return
	}
	startIdleThreads(4)
	prog := compileAdd(t)
	ctx := context.Background()
	session := func(eng *Engine) *Session {
		s, err := eng.Session(prog, WithMaxCycles(10_000))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	// compile compiles the program's trace on eng and returns it, or nil
	// when it outgrew eng's budget, and the heap its recorder held at
	// every budget request.
	compile := func(eng *Engine) (*core.Trace, []int64) {
		s := session(eng)
		var held []int64
		var base int64
		tr, _, err := eng.traces.Get(ctx, s.key, measured(s.compiler(), func(call, _ int) {
			h := liveHeap()
			if call == 1 {
				base = h
			}
			held = append(held, h-base)
		}))
		if err != nil && !errors.Is(err, ErrTraceBudget) {
			t.Fatal(err)
		}
		return tr, held
	}

	ref := NewEngine()
	if tr, _ := compile(ref); tr == nil {
		t.Fatal("the unbounded compile kept no trace")
	}
	_, refHeld := compile(NewEngine()) // the same compile, measured warm
	budget := ref.traces.Bytes() / 4
	var cycle int64
	for i := 1; i < len(refHeld) && refHeld[i-1] <= budget; i++ {
		cycle = max(cycle, refHeld[i]-refHeld[i-1])
	}
	if slices.Max(refHeld) < 2*(budget+cycle) {
		t.Fatalf("unbounded compile holds at most %d bytes: too small against budget %d + one cycle %d",
			slices.Max(refHeld), budget, cycle)
	}

	eng := newEngine(budget)
	tr, held := compile(eng)
	if tr != nil {
		t.Fatal("a compile four times the budget kept its trace")
	}
	if peak := slices.Max(held); peak > budget+cycle {
		t.Fatalf("the recorder held %d bytes, want at most budget %d + one cycle %d", peak, budget, cycle)
	}
	t.Logf("budget %d, one cycle %d: the refused compile held at most %d bytes over %d requests",
		budget, cycle, slices.Max(held), len(held))
	for i, in := range [][2]uint32{{40, 2}, {7, 35}, {1000, 24}} {
		info, err := session(eng).Run(ctx, []uint32{in[0]}, []uint32{in[1]})
		if err != nil {
			t.Fatal(err)
		}
		if want := in[0] + in[1]; info.Outputs[0] != want || info.Outputs[1] != max(in[0], in[1]) {
			t.Fatalf("session %d: outputs %v, want [%d %d]", i+1, info.Outputs, want, max(in[0], in[1]))
		}
	}
	if got := eng.TraceRecordings(); got != 1 {
		t.Fatalf("recordings = %d, want 1: the tombstone must stop compiling again", got)
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

// TestSessionTraceRecordingsShareBudget runs eight compiles at once, each
// for its own cycle budget and so its own trace key, through the cache
// call and compiler their sessions use, on an Engine whose trace budget
// fits two and a half of the program's traces. Every compile stops at its
// last cycle's budget request, or returns once the cache refuses it, and
// the cache's charge and the live heap are read there, with all eight
// stopped. The compiles in flight must hold no more than the budget
// between them, where eight unbounded ones would hold three times as
// much: the cache's charge exactly, and the heap within the slack of the
// charge's estimate, over that of as many compiles as were stopped in
// flight, each stopped at its first request (a refused compile has
// returned from its compiler, its scheduler with it). The compiles refused
// room must compile again once the others end, leaving no tombstone, and
// sessions of every key then run to correct outputs.
func TestSessionTraceRecordingsShareBudget(t *testing.T) {
	if !inChild(t, "TestSessionTraceRecordingsShareBudget") {
		return
	}
	startIdleThreads(4)
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

	// run compiles k keys at once on eng, stops each compile at budget
	// request stop (a final cycle's, or the first) or where the cache
	// refuses it, and reports the live heap there, the cache's charge and
	// how many compiles were stopped in flight. A goroutine arrives once:
	// a refused compile that compiles again passes its stop.
	run := func(eng *Engine, stop, k int) (heap, charged int64, stopped int) {
		var arrived, done sync.WaitGroup
		var inFlight atomic.Int64
		release := make(chan struct{})
		arrived.Add(k)
		done.Add(k)
		for i := range k {
			s, err := eng.Session(prog, WithMaxCycles(10_000+i))
			if err != nil {
				t.Fatal(err)
			}
			go func() {
				defer done.Done()
				counted := false
				arrive := func() bool {
					if counted {
						return false
					}
					counted = true
					arrived.Done()
					return true
				}
				compile := func(ctx context.Context, budget core.RecordBudget) (*core.Trace, error) {
					call := 0
					return s.compiler()(ctx, func(n int) bool {
						if call++; call == stop && arrive() {
							inFlight.Add(1)
							<-release
						}
						if !budget(n) {
							arrive()
							return false
						}
						return true
					})
				}
				_, _, err := eng.traces.Get(ctx, s.key, compile)
				arrive() // failed: do not leave the others waiting
				if err != nil {
					t.Error(err)
				}
			}()
		}
		arrived.Wait()
		heap, charged = liveHeap(), eng.traces.Bytes()
		close(release)
		done.Wait()
		return heap, charged, int(inFlight.Load())
	}
	eng := newEngine(budget)
	heap, charged, stopped := run(eng, cycles, n)
	// The same machine, so the two heaps hold one netlist.
	bare, _, _ := run(&Engine{cache: eng.cache, traces: cpu.NewTraceCache(0)}, 1, stopped)
	t.Logf("%d compiles of %d cycles, %d-byte trace, budget %d: %d stopped in flight, their recorders hold %d bytes, cache charges %d",
		n, cycles, trace, budget, stopped, heap-bare, charged)
	if charged > budget {
		t.Errorf("the cache charges %d bytes for compiles in flight, past its budget %d", charged, budget)
	}
	// MemoryBytes approximates the heap: it leaves out the spare capacity
	// of each trace's growing cycle list, hence the quarter of slack.
	if heap-bare > budget+budget/4 {
		t.Errorf("compiles in flight hold %d bytes of heap, past the budget %d", heap-bare, budget)
	}
	if eng.TraceRecordings() != n || eng.traces.Uncacheable() != 0 {
		t.Errorf("recordings %d, uncacheable %d, want %d and 0", eng.TraceRecordings(), eng.traces.Uncacheable(), n)
	}
	if got := eng.traces.Bytes(); got > budget {
		t.Errorf("the cache holds %d bytes once the compiles end, past its budget %d", got, budget)
	}
	for i := range n {
		s, err := eng.Session(prog, WithMaxCycles(10_000+i))
		if err != nil {
			t.Fatal(err)
		}
		a, b := uint32(100+i), uint32(i)
		info, err := s.Run(ctx, []uint32{a}, []uint32{b})
		if err != nil {
			t.Fatal(err)
		}
		if info.Outputs[0] != a+b || info.Outputs[1] != a {
			t.Fatalf("session %d: outputs %v, want [%d %d]", i, info.Outputs, a+b, a)
		}
	}
}

// BenchmarkFirstContact prices a session on a trace key its Engine has
// not seen — a program's first session, or one under a fresh cycle budget
// — on Hamming(512), in process. "compile" compiles the trace and replays
// it, as every such session does; "classify" runs on an Engine no trace
// fits, so the in-process run classifies live after a compile refused at
// its first cycle (a networked session fails there with ErrTraceBudget). Each iteration uses its own cycle budget, so each is a fresh
// key. Compare ns/op, B/op and allocs/op:
//
//	go test -run '^$' -bench FirstContact -benchmem -benchtime 8x .
func BenchmarkFirstContact(b *testing.B) {
	w := bencher.HammingWorkload(512)
	prog, _, err := w.Program()
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for _, compile := range []bool{true, false} {
		name := map[bool]string{true: "compile", false: "classify"}[compile]
		b.Run(name, func(b *testing.B) {
			eng := NewEngine()
			if !compile {
				eng = newEngine(1 << 10)
			}
			for i := 0; i < b.N; i++ {
				s, err := eng.Session(prog, WithMaxCycles(DefaultMaxCycles-i))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := s.Run(ctx, w.Alice, w.Bob); err != nil {
					b.Fatal(err)
				}
			}
			if kept := eng.traces.Uncacheable() == 0; kept != compile {
				b.Fatalf("%s: traces kept = %v", name, kept)
			}
		})
	}
}

// patternRand is label randomness that every Read starts afresh: the
// same seeded bytes for each call, so concurrent sessions sharing it draw
// the same seed and labels, whatever order their calls interleave in.
type patternRand struct{}

func (patternRand) Read(b []byte) (int, error) {
	return rand.New(rand.NewSource(41)).Read(b)
}

// tapConn keeps every byte its owner reads.
type tapConn struct {
	net.Conn
	mu  sync.Mutex
	got bytes.Buffer
}

func (c *tapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.got.Write(p[:n])
	c.mu.Unlock()
	return n, err
}

// tableFrames splits a stream of frames into the payloads of its table
// frames.
func tableFrames(t *testing.T, stream []byte) [][]byte {
	t.Helper()
	var out [][]byte
	for len(stream) > 0 {
		if len(stream) < wire.HeaderLen {
			t.Fatalf("stream ends inside a frame header")
		}
		h := wire.Header(stream[:wire.HeaderLen])
		end := wire.HeaderLen + int(h.Len())
		if end > len(stream) {
			t.Fatalf("stream ends inside a frame of %d bytes", h.Len())
		}
		if h.Type() == wire.Tables {
			out = append(out, stream[wire.HeaderLen:end])
		}
		stream = stream[end:]
	}
	return out
}

// TestSessionTraceCompileOnce runs eight concurrent first sessions of one
// program, eight Clients sharing one Engine against a Server on another,
// over net.Pipe: each Engine runs exactly one compile, and the other
// sessions wait for it. All eight decode the right output, and each
// session's table stream is byte-identical to that of a lone session on
// Engines of its own, which compile for it alone. The garbler draws the
// same labels in every session (patternRand), so the streams can be
// compared byte for byte.
func TestSessionTraceCompileOnce(t *testing.T) {
	w := bencher.HammingWorkload(160)
	prog, _, err := w.Program()
	if err != nil {
		t.Fatal(err)
	}
	want := w.Check(w.Alice, w.Bob)
	// sessions runs n concurrent sessions, each on its own connection,
	// and returns the table frames each client read.
	sessions := func(seng, ceng *Engine, n int) [][][]byte {
		srv := NewServer(seng)
		if err := srv.Register("p", prog, WithCycleBatch(8), WithMaxCycles(20_000),
			WithGarblerInput(w.Alice), WithRand(patternRand{})); err != nil {
			t.Fatal(err)
		}
		ln := newPipeListener()
		ctx, cancel := context.WithCancel(context.Background())
		served := make(chan error, 1)
		go func() { served <- srv.Serve(ctx, ln) }()
		defer func() {
			cancel()
			if err := <-served; err != nil {
				t.Error(err)
			}
		}()
		taps := make([]*tapConn, n)
		clients := make([]*Client, n)
		for i := range clients {
			a, b := net.Pipe()
			ln.conns <- b
			taps[i] = &tapConn{Conn: a}
			clients[i] = NewClient(taps[i], WithClientEngine(ceng))
			defer clients[i].Close()
			if err := clients[i].Register("p", prog); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		for i, cl := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				info, err := cl.Evaluate(ctx, "p", w.Bob)
				if err != nil {
					t.Errorf("session %d: %v", i, err)
					return
				}
				if got := info.Outputs[:len(want)]; !slices.Equal(got, want) {
					t.Errorf("session %d: outputs %v, want %v", i, got, want)
				}
			}()
		}
		wg.Wait()
		frames := make([][][]byte, n)
		for i, tc := range taps {
			tc.mu.Lock()
			frames[i] = tableFrames(t, tc.got.Bytes())
			tc.mu.Unlock()
		}
		return frames
	}

	lone := sessions(NewEngine(), NewEngine(), 1)[0]
	if len(lone) == 0 {
		t.Fatal("the lone session sent no table frame")
	}
	seng, ceng := NewEngine(), NewEngine()
	for i, got := range sessions(seng, ceng, 8) {
		if len(got) != len(lone) {
			t.Fatalf("session %d: %d table frames, the lone session %d", i, len(got), len(lone))
		}
		for f := range got {
			if !bytes.Equal(got[f], lone[f]) {
				t.Fatalf("session %d: table frame %d differs from the lone session's", i, f)
			}
		}
	}
	if seng.TraceRecordings() != 1 || ceng.TraceRecordings() != 1 {
		t.Fatalf("eight first sessions compiled %d traces on the server's Engine and %d on the clients', want 1 and 1",
			seng.TraceRecordings(), ceng.TraceRecordings())
	}
	if seng.TraceReplays() != 7 || ceng.TraceReplays() != 7 {
		t.Fatalf("replays %d and %d, want 7 and 7: every session but the compiling one", seng.TraceReplays(), ceng.TraceReplays())
	}
}

// TestServerTraceOversizedRefused serves sum32 and Hamming(160) from an
// Engine whose trace budget fits sum32's trace but not Hamming(160)'s.
// The first Hamming(160) session fails after its grant and before any
// table, with ErrTraceBudget on the server, while a sum32 session on
// another connection runs beside it to correct outputs. From then on the
// tombstone refuses the program before the grant: the next proposal gets
// the TraceTooLarge rejection, counted as a rejected session, and its
// connection serves sum32 next. A bare Garble, Evaluate or garble-ahead
// recording of the program fails the same way without writing a byte, and
// no goroutine outlives the server.
func TestServerTraceOversizedRefused(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	ctx := context.Background()
	sum, ham := bencher.SumWorkload(32), bencher.HammingWorkload(160)
	progs := map[string]*Program{}
	size := map[string]int{}
	for name, w := range map[string]*bencher.Workload{"sum": sum, "ham": ham} {
		prog, _, err := w.Program()
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewEngine().Session(prog, WithMaxCycles(20_000))
		if err != nil {
			t.Fatal(err)
		}
		tr, err := s.compiler()(ctx, nil)
		if err != nil {
			t.Fatal(err)
		}
		progs[name], size[name] = prog, tr.MemoryBytes()
	}
	if 2*size["sum"] >= size["ham"] {
		t.Fatalf("sum32's trace (%d B) is not well under Hamming(160)'s (%d B)", size["sum"], size["ham"])
	}
	eng := newEngine(int64(2 * size["sum"]))
	var logs strings.Builder
	var logMu sync.Mutex
	srv := NewServer(eng, WithServerLog(func(format string, args ...any) {
		logMu.Lock()
		defer logMu.Unlock()
		fmt.Fprintf(&logs, format+"\n", args...)
	}))
	for name, w := range map[string]*bencher.Workload{"sum": sum, "ham": ham} {
		if err := srv.Register(name, progs[name], WithCycleBatch(8), WithMaxCycles(20_000), WithGarblerInput(w.Alice)); err != nil {
			t.Fatal(err)
		}
	}
	addr, shutdown := startServer(t, srv)
	dial := func(tap *tapConn, names ...string) *Client {
		t.Helper()
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		tap.Conn = nc
		cl := NewClient(tap)
		for _, name := range names {
			if err := cl.Register(name, progs[name]); err != nil {
				t.Fatal(err)
			}
		}
		return cl
	}
	evalSum := func(cl *Client) error {
		info, err := cl.Evaluate(ctx, "sum", sum.Bob)
		if err != nil {
			return err
		}
		if want := sum.Check(sum.Alice, sum.Bob); !slices.Equal(info.Outputs[:len(want)], want) {
			return fmt.Errorf("sum32 outputs %v, want %v", info.Outputs[:len(want)], want)
		}
		return nil
	}

	// The first Hamming(160) session, with sum32 sessions beside it.
	first, side := new(tapConn), new(tapConn)
	cl1, cl2 := dial(first, "ham"), dial(side, "sum")
	sideErr := make(chan error, 1)
	go func() {
		for range 3 {
			if err := evalSum(cl2); err != nil {
				sideErr <- err
				return
			}
		}
		sideErr <- nil
	}()
	if _, err := cl1.Evaluate(ctx, "ham", ham.Bob); err == nil {
		t.Fatal("a Hamming(160) session ran on an Engine its trace does not fit")
	}
	if err := <-sideErr; err != nil {
		t.Fatalf("concurrent sum32 session: %v", err)
	}
	first.mu.Lock()
	if n := len(tableFrames(t, first.got.Bytes())); n != 0 {
		t.Errorf("the refused session's client read %d table frames", n)
	}
	first.mu.Unlock()
	if m := srv.Metrics(); m.SessionsFailed != 1 || m.TraceUncacheable != 1 {
		t.Errorf("after the first session: %d failed, %d uncacheable; want 1 and 1", m.SessionsFailed, m.TraceUncacheable)
	}

	// The next proposal is refused before the grant, and the connection
	// serves sum32 after it.
	cl3 := dial(new(tapConn), "ham", "sum")
	_, err := cl3.Evaluate(ctx, "ham", ham.Bob)
	var rej *RejectedError
	if !errors.As(err, &rej) || rej.Reason != proto.TraceTooLarge("ham") {
		t.Fatalf("second Hamming(160) proposal: %v, want the %q rejection", err, proto.TraceTooLarge("ham"))
	}
	if err := evalSum(cl3); err != nil {
		t.Fatalf("sum32 after the rejection, same connection: %v", err)
	}
	if m := srv.Metrics(); m.SessionsRejected != 1 || m.Programs["ham"].Rejected != 1 || m.SessionsFailed != 1 {
		t.Errorf("rejected %d (ham %d), failed %d; want 1, 1 and 1", m.SessionsRejected, m.Programs["ham"].Rejected, m.SessionsFailed)
	}

	// Bare sessions of the program on the same Engine fail before any
	// frame.
	s, err := eng.Session(progs["ham"], WithCycleBatch(8), WithMaxCycles(20_000))
	if err != nil {
		t.Fatal(err)
	}
	var wrote bytes.Buffer
	if _, err := s.Garble(ctx, &wrote, ham.Alice); !errors.Is(err, ErrTraceBudget) {
		t.Errorf("bare Garble: %v, want ErrTraceBudget", err)
	}
	if _, err := s.Evaluate(ctx, &wrote, ham.Bob); !errors.Is(err, ErrTraceBudget) {
		t.Errorf("bare Evaluate: %v, want ErrTraceBudget", err)
	}
	if _, err := s.record(ctx); !errors.Is(err, ErrTraceBudget) {
		t.Errorf("garble-ahead recording: %v, want ErrTraceBudget", err)
	}
	if wrote.Len() != 0 {
		t.Errorf("refused sessions wrote %d bytes", wrote.Len())
	}

	for _, cl := range []*Client{cl1, cl2, cl3} {
		cl.Close()
	}
	shutdown()
	logMu.Lock()
	if !strings.Contains(logs.String(), ErrTraceBudget.Error()) {
		t.Errorf("the server logged no ErrTraceBudget failure:\n%s", logs.String())
	}
	logMu.Unlock()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the server started", runtime.NumGoroutine(), goroutines)
		}
		time.Sleep(time.Millisecond)
	}
}
