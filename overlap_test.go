package arm2gc

import (
	"context"
	"net"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"arm2gc/internal/bencher"
)

// TestSessionsOverlap checks that the two parties of a session compute
// at the same time when they share a process: the evaluator evaluates its
// first cycle while the garbler is still garbling. It runs matmul5 (about
// 9 ms of garbling per replayed session) through Server and Client over
// one loopback TCP connection; net.Pipe never goes through the network
// poller, whose gap the garbler's yield before its table stream closes.
// Without the yield, a third to two thirds of the sessions ran one party
// after the other. The first session records the trace and is not
// counted. The sessions run in batches of 30, and one batch must pass: a
// busy host that takes the second core away from this process for a few
// milliseconds serializes the parties whatever the scheduler does, so a
// batch under such load is measured again, up to five times.
func TestSessionsOverlap(t *testing.T) {
	switch {
	case testing.Short():
		t.Skip("runs up to 151 matmul5 sessions")
	case raceEnabled:
		t.Skip("the race detector's overhead changes the scheduling this test measures")
	case runtime.GOMAXPROCS(0) < 2:
		t.Skip("the parties can overlap only with GOMAXPROCS >= 2")
	}
	const batches, sessions, wantOverlapped = 5, 30, 29
	w := bencher.MatrixMultWorkload(5)
	prog, _, err := w.Program()
	if err != nil {
		t.Fatal(err)
	}

	// Sink timestamps, as nanoseconds since base (monotonic clock).
	base := time.Now()
	var garbleFirst, garbleLast, evalFirst atomic.Int64
	stamp := func(v *atomic.Int64) { v.Store(int64(time.Since(base))) }

	srv := NewServer(NewEngine())
	if err := srv.Register("matmul5", prog, WithCycleBatch(8), WithMaxCycles(20_000), WithGarblerInput(w.Alice),
		WithStatsSink(func(u CycleUpdate) {
			if u.Cycle == 1 {
				stamp(&garbleFirst)
			}
			stamp(&garbleLast)
		})); err != nil {
		t.Fatal(err)
	}
	addr, shutdown := startServer(t, srv)
	defer shutdown()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	cl := NewClient(nc, WithClientEngine(NewEngine()))
	defer cl.Close()
	if err := cl.Register("matmul5", prog); err != nil {
		t.Fatal(err)
	}
	sink := WithStatsSink(func(u CycleUpdate) {
		if u.Cycle == 1 {
			stamp(&evalFirst)
		}
	})

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	want := w.Check(w.Alice, w.Bob)
	session := func() {
		info, err := cl.Evaluate(ctx, "matmul5", w.Bob, sink)
		if err != nil {
			t.Fatal(err)
		}
		if got := info.Outputs[:len(want)]; !slices.Equal(got, want) {
			t.Fatalf("outputs %v, want %v", got, want)
		}
	}
	session() // records the trace; the batches below replay it

	var counts []int
	for range batches {
		n := 0
		var overlap, lag []time.Duration
		for range sessions {
			session()
			// The garbler's last cycle precedes its last table frame,
			// which the evaluator reads before Evaluate returns.
			o := time.Duration(garbleLast.Load() - evalFirst.Load())
			if o > 0 {
				n++
			}
			overlap = append(overlap, o)
			lag = append(lag, time.Duration(evalFirst.Load()-garbleFirst.Load()))
		}
		slices.Sort(overlap)
		slices.Sort(lag)
		t.Logf("evaluator's first cycle before the garbler's last in %d of %d sessions; "+
			"garbler's last cycle minus evaluator's first: p50 %v; evaluator's first minus garbler's first: p50 %v",
			n, sessions, overlap[sessions/2], lag[sessions/2])
		if n >= wantOverlapped {
			return
		}
		counts = append(counts, n)
	}
	t.Errorf("the evaluator started before the garbler finished in %v of %d sessions per batch, want at least %d in one batch",
		counts, sessions, wantOverlapped)
}
