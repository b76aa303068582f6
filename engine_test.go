package arm2gc

import (
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"
)

func compileAdd(t testing.TB) *Program {
	t.Helper()
	prog, warnings, err := CompileC("add", addSrc, testLayout())
	if err != nil {
		t.Fatal(err)
	}
	if len(warnings) != 0 {
		t.Fatalf("unexpected warnings: %v", warnings)
	}
	return prog
}

func TestEngineCachesMachines(t *testing.T) {
	eng := NewEngine()
	machine := func(p *Program) *Machine {
		t.Helper()
		s, err := eng.Session(p)
		if err != nil {
			t.Fatal(err)
		}
		return s.Machine()
	}
	prog := compileAdd(t)
	if machine(prog).cpu != machine(prog).cpu {
		t.Fatal("same layout produced distinct netlists")
	}
	if got := eng.Builds(); got != 1 {
		t.Fatalf("builds = %d, want 1", got)
	}

	other := testLayout()
	other.ScratchWords += 4
	progOther, _, err := CompileC("add", addSrc, other)
	if err != nil {
		t.Fatal(err)
	}
	machine(progOther)
	if got := eng.Builds(); got != 2 {
		t.Fatalf("builds = %d after a second layout, want 2", got)
	}
}

func TestEngineSessionReuseSkipsSynthesis(t *testing.T) {
	eng := NewEngine()
	prog := compileAdd(t)
	s1, err := eng.Session(prog, WithMaxCycles(10_000))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := eng.Session(prog, WithMaxCycles(10_000))
	if err != nil {
		t.Fatal(err)
	}
	if got := eng.Builds(); got != 1 {
		t.Fatalf("second session triggered synthesis: builds = %d, want 1", got)
	}
	if s1.Machine().cpu != s2.Machine().cpu {
		t.Fatal("sessions do not share the cached machine")
	}
	info, err := s2.Run(context.Background(), []uint32{40}, []uint32{2})
	if err != nil {
		t.Fatal(err)
	}
	if info.Outputs[0] != 42 {
		t.Fatalf("outputs = %v", info.Outputs)
	}
}

// TestEngineConcurrentSessions drives N parallel in-process runs over one
// shared layout — the serving pattern the Engine exists for. Run under
// -race in CI.
func TestEngineConcurrentSessions(t *testing.T) {
	eng := NewEngine()
	prog := compileAdd(t)
	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sess, err := eng.Session(prog, WithMaxCycles(10_000))
			if err != nil {
				errs[i] = err
				return
			}
			a, b := uint32(100+i), uint32(i)
			info, err := sess.Run(context.Background(), []uint32{a}, []uint32{b})
			if err != nil {
				errs[i] = err
				return
			}
			if info.Outputs[0] != a+b || info.Outputs[1] != a {
				errs[i] = fmt.Errorf("session %d: outputs %v, want [%d %d]", i, info.Outputs, a+b, a)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := eng.Builds(); got != 1 {
		t.Fatalf("%d concurrent sessions caused %d builds, want 1", n, got)
	}
}

// TestEngineConcurrentTwoParty runs two full networked sessions in
// parallel over one shared machine (four protocol endpoints at once).
func TestEngineConcurrentTwoParty(t *testing.T) {
	eng := NewEngine()
	prog := compileAdd(t)
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for i := 0; i < 2; i++ {
		ca, cb := net.Pipe()
		a, b := uint32(1000*(i+1)), uint32(i+5)
		wg.Add(2)
		go func() {
			defer wg.Done()
			defer ca.Close()
			sess, err := eng.Session(prog, WithMaxCycles(10_000))
			if err != nil {
				errs <- err
				return
			}
			info, err := sess.Garble(context.Background(), ca, []uint32{a})
			if err != nil {
				errs <- err
				return
			}
			if info.Outputs[0] != a+b {
				errs <- fmt.Errorf("garbler saw %v, want %d", info.Outputs, a+b)
			}
		}()
		go func() {
			defer wg.Done()
			defer cb.Close()
			sess, err := eng.Session(prog, WithMaxCycles(10_000))
			if err != nil {
				errs <- err
				return
			}
			info, err := sess.Evaluate(context.Background(), cb, []uint32{b})
			if err != nil {
				errs <- err
				return
			}
			if info.Outputs[0] != a+b {
				errs <- fmt.Errorf("evaluator saw %v, want %d", info.Outputs, a+b)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := eng.Builds(); got != 1 {
		t.Fatalf("builds = %d, want 1", got)
	}
}

func TestEngineVerifySingleBuild(t *testing.T) {
	eng := NewEngine()
	prog := compileAdd(t)
	// Verify runs both the emulator and a garbled session; cross-checking
	// twice must still synthesize exactly one netlist.
	for i := 0; i < 2; i++ {
		info, err := eng.Verify(context.Background(), prog, []uint32{40}, []uint32{2}, WithMaxCycles(10_000))
		if err != nil {
			t.Fatal(err)
		}
		if info.Outputs[0] != 42 || info.Outputs[1] != 40 {
			t.Fatalf("outputs = %v, want [42 40]", info.Outputs)
		}
	}
	if got := eng.Builds(); got != 1 {
		t.Fatalf("two Verify calls cost %d builds, want 1", got)
	}
}

func TestSessionOptionValidation(t *testing.T) {
	eng := NewEngine()
	prog := compileAdd(t)
	if _, err := eng.Session(prog, WithMaxCycles(0)); err == nil {
		t.Error("WithMaxCycles(0) accepted")
	}
	if _, err := eng.Session(prog, WithCycleBatch(0)); err == nil {
		t.Error("WithCycleBatch(0) accepted")
	}
}

func TestSessionContextCancelLocalRun(t *testing.T) {
	eng := NewEngine()
	prog := compileAdd(t)
	sess, err := eng.Session(prog, WithMaxCycles(10_000))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sess.Run(ctx, []uint32{1}, []uint32{2}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
	if _, err := sess.Count(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Count returned %v, want context.Canceled", err)
	}
}

// TestSessionContextCancelNetworked cancels a Garble and an Evaluate whose
// peer never responds; both must return promptly with ctx.Err().
func TestSessionContextCancelNetworked(t *testing.T) {
	eng := NewEngine()
	prog := compileAdd(t)

	run := func(name string, start func(ctx context.Context, sess *Session, conn net.Conn) error) {
		t.Run(name, func(t *testing.T) {
			sess, err := eng.Session(prog, WithMaxCycles(10_000))
			if err != nil {
				t.Fatal(err)
			}
			conn, peer := net.Pipe()
			defer conn.Close()
			defer peer.Close() // the peer stays silent: the protocol blocks
			ctx, cancel := context.WithCancel(context.Background())
			errc := make(chan error, 1)
			go func() { errc <- start(ctx, sess, conn) }()
			time.Sleep(10 * time.Millisecond)
			cancel()
			select {
			case err := <-errc:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("%s returned %v, want context.Canceled", name, err)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("cancelled %s did not return", name)
			}
		})
	}
	run("garble", func(ctx context.Context, sess *Session, conn net.Conn) error {
		_, err := sess.Garble(ctx, conn, []uint32{1})
		return err
	})
	run("evaluate", func(ctx context.Context, sess *Session, conn net.Conn) error {
		_, err := sess.Evaluate(ctx, conn, []uint32{1})
		return err
	})
}

// runTwoParty wires a garbler and evaluator session over net.Pipe.
func runTwoParty(t *testing.T, gs, es *Session, alice, bob []uint32) (*RunInfo, *RunInfo) {
	t.Helper()
	ca, cb := net.Pipe()
	defer ca.Close()
	defer cb.Close()
	type r struct {
		info *RunInfo
		err  error
	}
	ch := make(chan r, 1)
	go func() {
		info, err := gs.Garble(context.Background(), ca, alice)
		ch <- r{info, err}
	}()
	bobInfo, err := es.Evaluate(context.Background(), cb, bob)
	if err != nil {
		t.Fatalf("evaluator: %v", err)
	}
	ga := <-ch
	if ga.err != nil {
		t.Fatalf("garbler: %v", ga.err)
	}
	return ga.info, bobInfo
}

// TestWithReadAheadIsNoOp pins the deprecated option as a no-op: an
// evaluating session with it, at any depth, reports the same RunInfo as
// one without it.
func TestWithReadAheadIsNoOp(t *testing.T) {
	eng := NewEngine()
	prog := compileAdd(t)
	session := func(opts ...Option) *Session {
		t.Helper()
		s, err := eng.Session(prog, append([]Option{WithMaxCycles(10_000), WithCycleBatch(4)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	alice, bob := []uint32{40}, []uint32{2}
	_, want := runTwoParty(t, session(), session(), alice, bob)
	if want.Outputs[0] != 42 {
		t.Fatalf("output %d, want 42", want.Outputs[0])
	}
	for _, depth := range []int{-1, 4} {
		_, got := runTwoParty(t, session(), session(WithReadAhead(depth)), alice, bob)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("WithReadAhead(%d): RunInfo %+v, want %+v", depth, got, want)
		}
	}
}

func TestSessionOutputModes(t *testing.T) {
	eng := NewEngine()
	prog := compileAdd(t)
	for _, tc := range []struct {
		mode    OutputMode
		learner string
	}{
		{OutputGarblerOnly, "garbler"},
		{OutputEvaluatorOnly, "evaluator"},
	} {
		gs, err := eng.Session(prog, WithMaxCycles(10_000), WithOutputMode(tc.mode))
		if err != nil {
			t.Fatal(err)
		}
		es, err := eng.Session(prog, WithMaxCycles(10_000), WithOutputMode(tc.mode))
		if err != nil {
			t.Fatal(err)
		}
		ga, ev := runTwoParty(t, gs, es, []uint32{30}, []uint32{12})
		learner, blind := ga, ev
		if tc.mode == OutputEvaluatorOnly {
			learner, blind = ev, ga
		}
		if learner.Outputs[0] != 42 || learner.Outputs[1] != 30 {
			t.Errorf("%s-only: learner outputs %v, want [42 30]", tc.learner, learner.Outputs)
		}
		if blind.Outputs != nil {
			t.Errorf("%s-only: blind party learned %v", tc.learner, blind.Outputs)
		}
		// Both still agree on the cost accounting.
		if ga.GarbledTables != ev.GarbledTables || ga.Cycles != ev.Cycles {
			t.Errorf("cost accounting diverged: %d/%d vs %d/%d",
				ga.GarbledTables, ga.Cycles, ev.GarbledTables, ev.Cycles)
		}
	}
}

// TestSessionHandshakeAbortOnMismatch pairs sessions whose public
// parameters disagree; the session-id check must abort before any labels
// move.
func TestSessionHandshakeAbortOnMismatch(t *testing.T) {
	eng := NewEngine()
	prog := compileAdd(t)
	progB, _, err := CompileC("sub", `
void gc_main(const int *a, const int *b, int *c) {
	c[0] = a[0] - b[0];
	c[1] = a[0];
}
`, testLayout())
	if err != nil {
		t.Fatal(err)
	}

	pair := func(g, e *Session) (gerr, eerr error) {
		ca, cb := net.Pipe()
		errc := make(chan error, 1)
		go func() {
			_, err := g.Garble(context.Background(), ca, []uint32{1})
			errc <- err
		}()
		_, eerr = e.Evaluate(context.Background(), cb, []uint32{2})
		ca.Close()
		cb.Close()
		return <-errc, eerr
	}

	mk := func(p *Program, opts ...Option) *Session {
		s, err := eng.Session(p, append([]Option{WithMaxCycles(10_000)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	// Different program binaries.
	if gerr, eerr := pair(mk(prog), mk(progB)); gerr == nil || eerr == nil {
		t.Errorf("program mismatch: garbler err %v, evaluator err %v", gerr, eerr)
	}
	// Different output modes.
	if gerr, eerr := pair(mk(prog, WithOutputMode(OutputGarblerOnly)), mk(prog)); gerr == nil || eerr == nil {
		t.Errorf("output-mode mismatch: garbler err %v, evaluator err %v", gerr, eerr)
	}
	// Different cycle batches.
	if gerr, eerr := pair(mk(prog, WithCycleBatch(8)), mk(prog)); gerr == nil || eerr == nil {
		t.Errorf("cycle-batch mismatch: garbler err %v, evaluator err %v", gerr, eerr)
	}
}

func TestSessionCycleBatch(t *testing.T) {
	eng := NewEngine()
	prog := compileAdd(t)
	mk := func(batch int) *Session {
		s, err := eng.Session(prog, WithMaxCycles(10_000), WithCycleBatch(batch))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	g1, e1 := runTwoParty(t, mk(1), mk(1), []uint32{40}, []uint32{2})
	g8, e8 := runTwoParty(t, mk(8), mk(8), []uint32{40}, []uint32{2})

	for _, info := range []*RunInfo{g1, e1, g8, e8} {
		if info.Outputs[0] != 42 || info.Outputs[1] != 40 {
			t.Fatalf("outputs = %v, want [42 40]", info.Outputs)
		}
	}
	if g1.GarbledTables != g8.GarbledTables || g1.Cycles != g8.Cycles {
		t.Fatalf("batching changed cost: %d/%d vs %d/%d",
			g1.GarbledTables, g1.Cycles, g8.GarbledTables, g8.Cycles)
	}
	// One frame per cycle unbatched; ~cycles/8 frames batched.
	if g1.TableFrames != g1.Cycles {
		t.Fatalf("unbatched frames = %d over %d cycles", g1.TableFrames, g1.Cycles)
	}
	wantFrames := (g8.Cycles + 7) / 8
	if g8.TableFrames != wantFrames || e8.TableFrames != wantFrames {
		t.Fatalf("batch-8 frames = %d/%d over %d cycles, want %d",
			g8.TableFrames, e8.TableFrames, g8.Cycles, wantFrames)
	}
}

func TestSessionStatsSink(t *testing.T) {
	eng := NewEngine()
	prog := compileAdd(t)
	var updates []CycleUpdate
	sess, err := eng.Session(prog, WithMaxCycles(10_000),
		WithStatsSink(func(u CycleUpdate) { updates = append(updates, u) }))
	if err != nil {
		t.Fatal(err)
	}
	info, err := sess.Run(context.Background(), []uint32{40}, []uint32{2})
	if err != nil {
		t.Fatal(err)
	}
	if len(updates) != info.Cycles {
		t.Fatalf("sink saw %d updates over %d cycles", len(updates), info.Cycles)
	}
	total := 0
	for i, u := range updates {
		if u.Cycle != i+1 {
			t.Fatalf("update %d has cycle %d", i, u.Cycle)
		}
		total += u.Stats.Garbled
	}
	if total != info.GarbledTables {
		t.Fatalf("per-cycle garbled sum %d != total %d", total, info.GarbledTables)
	}
}
