package arm2gc

import (
	"context"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"arm2gc/internal/bencher"
)

// turnConn counts its owner's turns from writing to reading: a Read after
// any Write is one turn, a round trip the owner waits for.
type turnConn struct {
	net.Conn
	mu    sync.Mutex
	wrote bool
	turns int
}

func (c *turnConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.wrote = true
	c.mu.Unlock()
	return c.Conn.Write(p)
}

func (c *turnConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	if c.wrote {
		c.turns, c.wrote = c.turns+1, false
	}
	c.mu.Unlock()
	return c.Conn.Read(p)
}

// take returns the turns counted since the last take.
func (c *turnConn) take() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.turns
	c.turns = 0
	return n
}

// dialServer serves srv on a fresh listener over link — "tcp" for
// loopback TCP, "pipe" for net.Pipe, where every write waits for its
// reader — and returns the client's end of one connection and a function
// that shuts the server down.
func dialServer(tb testing.TB, srv *Server, link string) (net.Conn, func()) {
	tb.Helper()
	if link == "tcp" {
		addr, shutdown := startServer(tb, srv)
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			shutdown()
			tb.Fatal(err)
		}
		return nc, shutdown
	}
	ln := newPipeListener()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()
	return ln.dial(tb), func() {
		cancel()
		if err := <-done; err != nil {
			tb.Error(err)
		}
	}
}

// TestClientRoundTrips pins how many times a Client turns from writing to
// reading. Client.Register's OT set-up takes 2 turns: proposal → grant,
// and the base OTs' first point → the garbler's points. A session on the
// held OT epoch takes 2 as well: proposal → grant, and the hello echo
// with the OT correction → the label ciphertexts, which the table stream
// and the decode frame follow. The garbler's opening flight, its hello
// and Alice's labels, arrives after the grant without a turn. The count
// is the same whether the session compiles its trace or replays it, and
// over loopback TCP and net.Pipe alike.
func TestClientRoundTrips(t *testing.T) {
	for _, w := range []*bencher.Workload{bencher.SumWorkload(32), bencher.HammingWorkload(160)} {
		for _, link := range []string{"tcp", "pipe"} {
			t.Run(w.Name+"/"+link, func(t *testing.T) {
				prog, _, err := w.Program()
				if err != nil {
					t.Fatal(err)
				}
				srv := NewServer(NewEngine())
				if err := srv.Register("p", prog, WithCycleBatch(8), WithMaxCycles(20_000), WithGarblerInput(w.Alice)); err != nil {
					t.Fatal(err)
				}
				nc, shutdown := dialServer(t, srv, link)
				defer shutdown()
				tc := &turnConn{Conn: nc}
				cl := NewClient(tc, WithClientEngine(NewEngine()))
				defer cl.Close()
				if err := cl.Register("p", prog); err != nil {
					t.Fatal(err)
				}
				if n := tc.take(); n != 2 {
					t.Errorf("the OT set-up took %d turns, want 2", n)
				}
				want := w.Check(w.Alice, w.Bob)
				for _, path := range []string{"compiled", "replayed", "replayed"} {
					info, err := cl.Evaluate(context.Background(), "p", w.Bob)
					if err != nil {
						t.Fatalf("%s: %v", path, err)
					}
					if got := info.Outputs[:len(want)]; !slices.Equal(got, want) {
						t.Fatalf("%s: outputs %v, want %v", path, got, want)
					}
					if n := tc.take(); n != 2 {
						t.Errorf("%s session: %d turns, want 2", path, n)
					}
				}
			})
		}
	}
}

// BenchmarkClientEvaluate times a warm session as a Client sees it: a
// Client against a Server over loopback TCP, with the OT epoch held
// (Client.Register) and the trace compiled on both sides by one session
// before the timer, on sum32 and Hamming(512). Both parties share the
// process, so B/op and allocs/op are theirs together. It also reports the
// client's read_wait and negotiate phases (RunInfo.Phases) per session:
//
//	go test -run '^$' -bench ClientEvaluate -benchmem .
func BenchmarkClientEvaluate(b *testing.B) {
	for _, tc := range []struct {
		name string
		w    *bencher.Workload
	}{
		{"sum32", bencher.SumWorkload(32)},
		{"hamming512", bencher.HammingWorkload(512)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			prog, _, err := tc.w.Program()
			if err != nil {
				b.Fatal(err)
			}
			srv := NewServer(NewEngine())
			if err := srv.Register("p", prog, WithCycleBatch(8), WithMaxCycles(20_000), WithGarblerInput(tc.w.Alice)); err != nil {
				b.Fatal(err)
			}
			nc, shutdown := dialServer(b, srv, "tcp")
			defer shutdown()
			cl := NewClient(nc, WithClientEngine(NewEngine()))
			defer cl.Close()
			if err := cl.Register("p", prog); err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			if _, err := cl.Evaluate(ctx, "p", tc.w.Bob); err != nil { // the compile
				b.Fatal(err)
			}
			var readWait, negotiate time.Duration
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				info, err := cl.Evaluate(ctx, "p", tc.w.Bob)
				if err != nil {
					b.Fatal(err)
				}
				readWait += info.Phases[PhaseReadWait]
				negotiate += info.Phases[PhaseNegotiate]
			}
			b.ReportMetric(float64(readWait.Nanoseconds())/float64(b.N), "read_wait-ns/op")
			b.ReportMetric(float64(negotiate.Nanoseconds())/float64(b.N), "negotiate-ns/op")
		})
	}
}
