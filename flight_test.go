package arm2gc

import (
	"context"
	"net"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"arm2gc/internal/bencher"
)

// writeCountingConn counts the writes its owner issues.
type writeCountingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c writeCountingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestSessionWriteCounts pins how many writes each party issues per
// session, propose and grant included, at the benchmark's cycle batch of
// 8. A session's frames leave in flights of at least 2 KiB or when a
// party turns to read, so the counts follow from frame sizes and the
// protocol's turn-taking alone: the server's hello and Alice's labels
// leave in one flight, and the client's hello echo with its OT
// correction in one. Each program's first session compiles its trace
// before replaying it, and its second replays the cached trace; both put
// the same bytes on the wire in the same writes. Written a frame at a
// time, with header and payload apart, the same sessions took 7 and 12
// writes (sum32) and 7 and 68 (Hamming(160)); with the echo read before
// Alice's labels were sent, 4 and 4 (sum32) and 4 and 11 (Hamming(160));
// before the cross-cycle liveness pass dropped 90 of Hamming(160)'s 480
// tables, 3 and 10.
func TestSessionWriteCounts(t *testing.T) {
	for _, tc := range []struct {
		w              *bencher.Workload
		client, server int64 // writes per session
	}{
		{bencher.SumWorkload(32), 3, 3},
		{bencher.HammingWorkload(160), 3, 9},
	} {
		t.Run(tc.w.Name, func(t *testing.T) {
			prog, _, err := tc.w.Program()
			if err != nil {
				t.Fatal(err)
			}
			seng, ceng := NewEngine(), NewEngine()
			srv := NewServer(seng)
			if err := srv.Register("p", prog, WithCycleBatch(8), WithMaxCycles(20_000), WithGarblerInput(tc.w.Alice)); err != nil {
				t.Fatal(err)
			}
			ln := newPipeListener()
			done := make(chan error, 1)
			ctx, cancel := context.WithCancel(context.Background())
			go func() { done <- srv.Serve(ctx, ln) }()
			defer func() {
				cancel()
				if err := <-done; err != nil {
					t.Error(err)
				}
			}()

			var cw, sw atomic.Int64
			a, b := net.Pipe()
			select {
			case ln.conns <- writeCountingConn{b, &sw}:
			case <-time.After(5 * time.Second):
				t.Fatal("server did not accept the pipe connection")
			}
			cl := NewClient(writeCountingConn{a, &cw}, WithClientEngine(ceng))
			defer cl.Close()
			if err := cl.Register("p", prog); err != nil {
				t.Fatal(err)
			}
			want := tc.w.Check(tc.w.Alice, tc.w.Bob)
			for i, path := range []string{"compiled", "replayed"} {
				cw.Store(0)
				sw.Store(0)
				info, err := cl.Evaluate(ctx, "p", tc.w.Bob)
				if err != nil {
					t.Fatalf("%s: %v", path, err)
				}
				if got := info.Outputs[:len(want)]; !slices.Equal(got, want) {
					t.Fatalf("%s: outputs %v, want %v", path, got, want)
				}
				if seng.TraceReplays() != int64(i) || ceng.TraceReplays() != int64(i) {
					t.Fatalf("%s: %d and %d replays on the server and client", path, seng.TraceReplays(), ceng.TraceReplays())
				}
				if c, s := cw.Load(), sw.Load(); c != tc.client || s != tc.server {
					t.Errorf("%s session: client %d and server %d writes, want %d and %d",
						path, c, s, tc.client, tc.server)
				}
			}
		})
	}
}
