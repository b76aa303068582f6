package proto

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"runtime"
	"slices"
	"testing"
	"time"

	"arm2gc/internal/build"
	"arm2gc/internal/circuit"
	"arm2gc/internal/circuit/circtest"
	"arm2gc/internal/core"
	"arm2gc/internal/sim"
)

// runBoth executes the protocol on both ends of a pipe, under a deadline:
// the pipe is unbuffered, so a party that waits with frames of its own
// unwritten deadlocks the session, and the deadline makes that a failure.
func runBoth(t *testing.T, cfg Config, alice, bob []bool) (*Result, *Result) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	ca, cb := net.Pipe()
	defer ca.Close()
	defer cb.Close()
	type res struct {
		r   *Result
		err error
	}
	ch := make(chan res, 1)
	go func() {
		r, err := RunGarbler(ctx, ca, cfg, alice, nil)
		ch <- res{r, err}
	}()
	rb, err := RunEvaluator(ctx, cb, cfg, bob)
	if err != nil {
		t.Fatalf("evaluator: %v", err)
	}
	ra := <-ch
	if ra.err != nil {
		t.Fatalf("garbler: %v", ra.err)
	}
	return ra.r, rb
}

// runBothAsym runs both parties over a pipe with per-side configs (for the
// role-local Trace) and a fixed-seed garbler RNG,
// recording every table-frame payload the evaluator receives.
func runBothAsym(t *testing.T, cfgG, cfgE Config, alice, bob []bool, seed int64) (*Result, *Result, [][]byte) {
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
		r, err := RunGarbler(context.Background(), ca, cfgG, alice, rand.New(rand.NewSource(seed)))
		ch <- res{r, err}
	}()
	rb, err := RunEvaluator(context.Background(), cb, cfgE, bob)
	if err != nil {
		t.Fatalf("evaluator: %v", err)
	}
	ra := <-ch
	if ra.err != nil {
		t.Fatalf("garbler: %v", ra.err)
	}
	return ra.r, rb, frames
}

func TestProtocolAdder(t *testing.T) {
	b := build.New("adder")
	a := b.Input(circuit.Alice, "a", 32)
	x := b.Input(circuit.Bob, "x", 32)
	b.Output("sum", b.Add(a, x))
	c := b.MustCompile()

	cfg := Config{Circuit: c, Cycles: 1}
	av, bv := uint64(123456789), uint64(987654321)
	ra, rb := runBoth(t, cfg, sim.UnpackUint(av, 32), sim.UnpackUint(bv, 32))
	want := (av + bv) & 0xffffffff
	if got := sim.PackUint(ra.Outputs); got != want {
		t.Errorf("garbler sees %d, want %d", got, want)
	}
	if got := sim.PackUint(rb.Outputs); got != want {
		t.Errorf("evaluator sees %d, want %d", got, want)
	}
	if ra.Stats != rb.Stats {
		t.Errorf("stats diverge: %+v vs %+v", ra.Stats, rb.Stats)
	}
	if ra.Stats.Total.Garbled != 31 {
		t.Errorf("garbled %d tables, want 31", ra.Stats.Total.Garbled)
	}
}

func TestProtocolRandomCircuits(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 10; trial++ {
		c, nA, nB := circtest.Random(rng, 60, 8)
		in := sim.Inputs{
			Alice:  circtest.RandBits(rng, nA),
			Bob:    circtest.RandBits(rng, nB),
			Public: circtest.RandBits(rng, c.PublicBits),
		}
		cycles := 1 + rng.Intn(4)
		// Exercise the frame batching across trials, including batches
		// larger than the cycle count.
		cfg := Config{Circuit: c, Public: in.Public, Cycles: cycles, CycleBatch: 1 + trial%4}
		ra, rb := runBoth(t, cfg, in.Alice, in.Bob)

		want := sim.Run(c, in, cycles)
		// Protocol outputs are resolved (post-copy) like the simulator's.
		for i := range want {
			if ra.Outputs[i] != want[i] || rb.Outputs[i] != want[i] {
				t.Fatalf("trial %d output %d: garbler %v evaluator %v sim %v",
					trial, i, ra.Outputs[i], rb.Outputs[i], want[i])
			}
		}
	}
}

// multiCycleConfig builds a 16-cycle sequential accumulator circuit for
// the batching tests: acc' = acc + (a XOR x) each cycle.
func multiCycleConfig(t *testing.T, batch int) (Config, []bool, []bool) {
	t.Helper()
	b := build.New("accum")
	a := b.Input(circuit.Alice, "a", 16)
	x := b.Input(circuit.Bob, "x", 16)
	acc := b.Reg("acc", 16)
	acc.SetNext(b.Add(acc.Q(), b.XorBus(a, x)))
	b.Output("acc", acc.Q())
	c := b.MustCompile()
	cfg := Config{Circuit: c, Cycles: 16, CycleBatch: batch}
	return cfg, sim.UnpackUint(0x2f1d, 16), sim.UnpackUint(0x1234, 16)
}

func TestCycleBatchReducesFrames(t *testing.T) {
	cfg1, alice, bob := multiCycleConfig(t, 1)
	r1a, r1b := runBoth(t, cfg1, alice, bob)
	cfg8, _, _ := multiCycleConfig(t, 8)
	r8a, r8b := runBoth(t, cfg8, alice, bob)

	// Batching must not change the computation: byte-identical outputs
	// and identical garbled-table accounting.
	for i := range r1a.Outputs {
		if r1a.Outputs[i] != r8a.Outputs[i] || r1b.Outputs[i] != r8b.Outputs[i] {
			t.Fatalf("output %d differs between batch sizes", i)
		}
	}
	if r1a.Stats != r8a.Stats {
		t.Fatalf("stats differ: batch1 %+v batch8 %+v", r1a.Stats, r8a.Stats)
	}

	if r1a.TableFrames != 16 || r1b.TableFrames != 16 {
		t.Fatalf("unbatched frames = %d/%d, want 16", r1a.TableFrames, r1b.TableFrames)
	}
	if r8a.TableFrames != 2 || r8b.TableFrames != 2 {
		t.Fatalf("batch-8 frames = %d/%d, want 2", r8a.TableFrames, r8b.TableFrames)
	}
}

func TestCycleBatchMismatchRejected(t *testing.T) {
	cfg1, alice, bob := multiCycleConfig(t, 1)
	cfg8, _, _ := multiCycleConfig(t, 8)
	ca, cb := net.Pipe()
	errc := make(chan error, 1)
	go func() {
		_, err := RunGarbler(context.Background(), ca, cfg8, alice, nil)
		errc <- err
	}()
	if _, err := RunEvaluator(context.Background(), cb, cfg1, bob); err == nil {
		t.Error("evaluator accepted a mismatched cycle batch")
	}
	ca.Close()
	cb.Close()
	<-errc
}

// TestContextCancelUnblocks: a cancelled party returns the context's error
// wherever it waits, and no goroutine outlives the calls.
func TestContextCancelUnblocks(t *testing.T) {
	before := runtime.NumGoroutine()
	b := build.New("stall")
	a := b.Input(circuit.Alice, "a", 8)
	b.Output("o", a)
	c := b.MustCompile()
	cfg := Config{Circuit: c, Cycles: 1}

	// The garbler's peer never shows up: without cancellation it would
	// block forever in the hello exchange.
	ca, cb := net.Pipe()
	defer ca.Close()
	defer cb.Close()
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := RunGarbler(ctx, ca, cfg, nil, nil)
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("garbler returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled garbler did not return")
	}

	// Same for an evaluator waiting on a silent garbler.
	ctx2, cancel2 := context.WithCancel(context.Background())
	go func() {
		_, err := RunEvaluator(ctx2, cb, cfg, nil)
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel2()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("evaluator returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled evaluator did not return")
	}

	// A session cancelled while the garbler holds a flight it has not
	// written: the OT ciphertexts and the first two table frames, about
	// 1.5 KB against the 2 KiB threshold, with the evaluator waiting on
	// them. The garbler writes nothing after the cancellation.
	mc, alice, bob := multiCycleConfig(t, 1)
	ctx3, cancel3 := context.WithCancel(context.Background())
	defer cancel3()
	pa, pb := net.Pipe()
	defer pa.Close()
	defer pb.Close()
	rc := &writeCounter{Conn: pa}
	cfgG, cfgE := mc, mc
	atCancel := -1
	cfgG.Sink = func(cyc int, _ core.CycleStats) {
		if cyc == 2 {
			atCancel = rc.writes
			cancel3()
		}
	}
	tables := 0
	cfgE.tapTables = func([]byte) { tables++ }
	go func() {
		_, err := RunGarbler(ctx3, rc, cfgG, alice, nil)
		errc <- err
	}()
	if _, err := RunEvaluator(ctx3, pb, cfgE, bob); !errors.Is(err, context.Canceled) {
		t.Fatalf("evaluator of a streaming session returned %v, want context.Canceled", err)
	}
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("garbler of a streaming session returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled streaming garbler did not return")
	}
	if atCancel < 0 || rc.writes != atCancel || tables != 0 {
		t.Errorf("garbler wrote %d times by the cancellation and %d in all, and %d table frames arrived: the pending flight left",
			atCancel, rc.writes, tables)
	}

	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the cancelled sessions, %d before", runtime.NumGoroutine(), before)
		}
	}
}

// writeCounter counts its owner's writes.
type writeCounter struct {
	net.Conn
	writes int
}

func (c *writeCounter) Write(p []byte) (int, error) {
	c.writes++
	return c.Conn.Write(p)
}

// TestFlightsEveryOutputMode runs Hamming(64), whose table frames share
// flights, once in each output mode: every flight must leave before its
// party waits, or the unbuffered pipe deadlocks the session.
func TestFlightsEveryOutputMode(t *testing.T) {
	var want []bool
	for _, mode := range []OutputMode{OutputBoth, OutputGarblerOnly, OutputEvaluatorOnly} {
		cfg, alice, bob := hammingConfig(t, 10_000, 1)
		cfg.Outputs = mode
		ra, rb := runBoth(t, cfg, alice, bob)
		switch mode {
		case OutputBoth:
			want = rb.Outputs
			if !slices.Equal(ra.Outputs, want) {
				t.Fatalf("both: the parties decoded different outputs")
			}
		case OutputGarblerOnly:
			if !slices.Equal(ra.Outputs, want) || rb.Outputs != nil {
				t.Fatalf("garbler-only: garbler %v, evaluator %v", ra.Outputs, rb.Outputs)
			}
		case OutputEvaluatorOnly:
			if !slices.Equal(rb.Outputs, want) || ra.Outputs != nil {
				t.Fatalf("evaluator-only: evaluator %v, garbler %v", rb.Outputs, ra.Outputs)
			}
		}
	}
}

func TestStatsSinkStreams(t *testing.T) {
	cfg, alice, bob := multiCycleConfig(t, 4)
	var garbCycles, evalCycles []int
	cfgA, cfgB := cfg, cfg
	cfgA.Sink = func(cyc int, _ core.CycleStats) { garbCycles = append(garbCycles, cyc) }
	cfgB.Sink = func(cyc int, _ core.CycleStats) { evalCycles = append(evalCycles, cyc) }

	ca, cb := net.Pipe()
	defer ca.Close()
	defer cb.Close()
	done := make(chan error, 1)
	go func() {
		_, err := RunGarbler(context.Background(), ca, cfgA, alice, nil)
		done <- err
	}()
	if _, err := RunEvaluator(context.Background(), cb, cfgB, bob); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if len(garbCycles) != 16 || len(evalCycles) != 16 {
		t.Fatalf("sink saw %d/%d cycles, want 16", len(garbCycles), len(evalCycles))
	}
	for i, c := range garbCycles {
		if c != i+1 {
			t.Fatalf("garbler sink cycle %d at index %d", c, i)
		}
	}
}

func TestProtocolOverTCP(t *testing.T) {
	b := build.New("cmp")
	a := b.Input(circuit.Alice, "a", 16)
	x := b.Input(circuit.Bob, "x", 16)
	b.Output("lt", build.Bus{b.LtU(a, x)})
	c := b.MustCompile()
	cfg := Config{Circuit: c, Cycles: 1}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		defer conn.Close()
		r, err := RunGarbler(context.Background(), conn, cfg, sim.UnpackUint(100, 16), nil)
		if err == nil && !r.Outputs[0] {
			t.Error("garbler: 100 < 200 decoded false")
		}
		done <- err
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	rb, err := RunEvaluator(context.Background(), conn, cfg, sim.UnpackUint(200, 16))
	if err != nil {
		t.Fatal(err)
	}
	if !rb.Outputs[0] {
		t.Error("evaluator: 100 < 200 decoded false")
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestSessionMismatch(t *testing.T) {
	b := build.New("m1")
	a := b.Input(circuit.Alice, "a", 4)
	b.Output("o", a)
	c1 := b.MustCompile()
	b2 := build.New("m2")
	x := b2.Input(circuit.Bob, "x", 4)
	b2.Output("o", b2.NotBus(x))
	c2 := b2.MustCompile()

	ca, cb := net.Pipe()
	errc := make(chan error, 1)
	go func() {
		_, err := RunGarbler(context.Background(), ca, Config{Circuit: c1, Cycles: 1}, nil, nil)
		errc <- err
	}()
	if _, err := RunEvaluator(context.Background(), cb, Config{Circuit: c2, Cycles: 1}, nil); err == nil {
		t.Error("evaluator accepted mismatched circuit")
	}
	// The garbler may be blocked waiting for an ack that will never come;
	// closing the pipe unblocks it with an error.
	ca.Close()
	cb.Close()
	if err := <-errc; err == nil {
		t.Error("garbler succeeded against mismatched evaluator")
	}
}

func TestOneSidedOutputs(t *testing.T) {
	b := build.New("onesided")
	a := b.Input(circuit.Alice, "a", 8)
	x := b.Input(circuit.Bob, "x", 8)
	b.Output("sum", b.Add(a, x))
	c := b.MustCompile()

	for _, mode := range []OutputMode{OutputGarblerOnly, OutputEvaluatorOnly} {
		cfg := Config{Circuit: c, Cycles: 1, Outputs: mode}
		ra, rb := runBoth(t, cfg, sim.UnpackUint(33, 8), sim.UnpackUint(9, 8))
		var learner, blind *Result
		if mode == OutputGarblerOnly {
			learner, blind = ra, rb
		} else {
			learner, blind = rb, ra
		}
		if got := sim.PackUint(learner.Outputs); got != 42 {
			t.Errorf("mode %d: learner got %d, want 42", mode, got)
		}
		if blind.Outputs != nil {
			t.Errorf("mode %d: the other party learned outputs %v", mode, blind.Outputs)
		}
	}
}

func TestOutputModeMismatchRejected(t *testing.T) {
	b := build.New("mm")
	a := b.Input(circuit.Alice, "a", 4)
	b.Output("o", a)
	c := b.MustCompile()
	ca, cb := net.Pipe()
	errc := make(chan error, 1)
	go func() {
		_, err := RunGarbler(context.Background(), ca, Config{Circuit: c, Cycles: 1, Outputs: OutputGarblerOnly}, nil, nil)
		errc <- err
	}()
	_, err := RunEvaluator(context.Background(), cb, Config{Circuit: c, Cycles: 1, Outputs: OutputBoth}, nil)
	if err == nil {
		t.Error("evaluator accepted a mismatched output mode")
	}
	ca.Close()
	cb.Close()
	<-errc
}

// TestPipelinedStatsSinkOrdered pins the Sink contract on both roles: every
// cycle's stats arrive exactly once, in cycle order. (The name predates
// the removal of the pipelined garbler; the serial loop is the only one.)
func TestPipelinedStatsSinkOrdered(t *testing.T) {
	cfg, alice, bob := multiCycleConfig(t, 1)
	for _, role := range []string{"garbler", "evaluator"} {
		var cycles []int
		cfgG, cfgE := cfg, cfg
		sink := func(cyc int, _ core.CycleStats) { cycles = append(cycles, cyc) }
		if role == "garbler" {
			cfgG.Sink = sink
		} else {
			cfgE.Sink = sink
		}
		runBothAsym(t, cfgG, cfgE, alice, bob, 21)
		if len(cycles) != cfg.Cycles {
			t.Fatalf("%s: sink fired %d times, want %d", role, len(cycles), cfg.Cycles)
		}
		for i, cyc := range cycles {
			if cyc != i+1 {
				t.Fatalf("%s: sink call %d reported cycle %d", role, i+1, cyc)
			}
		}
	}
}
