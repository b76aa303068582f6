package arm2gc

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"arm2gc/internal/proto"
)

// countingConn counts the bytes a connection moves in both directions.
type countingConn struct {
	net.Conn
	n atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// baseOTBytes is what the 128 base OTs put on the wire: the evaluator's
// point and 16 frames of 8 garbler points, each frame with its header.
const baseOTBytes = 16*(5+8*65) + 5 + 65

// setupFraming is what an OT set-up moves besides the base OTs and the
// program name: the proposal's frame header, name length and 30 fixed
// bytes, the 61-byte grant and its header, and the empty decode and
// outputs frames.
const setupFraming = (5 + 2 + 30) + (5 + 61) + 5 + 5

// waitServed waits until srv has accounted n sessions: the last frame of
// a session may still be in flight to the server when Evaluate returns.
func waitServed(t *testing.T, srv *Server, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for srv.SessionsServed() < n {
		if time.Now().After(deadline) {
			t.Fatalf("served %d sessions, want %d", srv.SessionsServed(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServerOTBaseOncePerConnection: over N sessions on each of several
// connections, each connection runs the base OTs once — in the OT set-up
// Client.Register sends — and every session, the first included, only
// extends them and moves the same bytes. The two counters reach the
// scrape endpoint.
func TestServerOTBaseOncePerConnection(t *testing.T) {
	prog := compileAdd(t)
	eng := NewEngine()
	srv := NewServer(eng)
	if err := srv.Register("add", prog, WithMaxCycles(10_000), WithGarblerInput([]uint32{40})); err != nil {
		t.Fatal(err)
	}
	addr, shutdown := startServer(t, srv)
	defer shutdown()

	const conns, sessions = 3, 4
	var perSession int64
	for c := 0; c < conns; c++ {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		cc := &countingConn{Conn: nc}
		cl := NewClient(cc, WithClientEngine(eng))
		if err := cl.Register("add", prog); err != nil {
			t.Fatal(err)
		}
		if setup, want := cc.n.Load(), int64(baseOTBytes+setupFraming+len("add")); setup != want {
			t.Errorf("conn %d: the OT set-up moved %d bytes, want %d", c, setup, want)
		}
		for i := 0; i < sessions; i++ {
			before := cc.n.Load()
			info, err := cl.Evaluate(context.Background(), "add", []uint32{uint32(i)})
			if err != nil {
				t.Fatalf("conn %d session %d: %v", c, i, err)
			}
			if info.Outputs[0] != 40+uint32(i) {
				t.Fatalf("conn %d session %d: sum = %d", c, i, info.Outputs[0])
			}
			if perSession == 0 {
				perSession = cc.n.Load() - before
			} else if moved := cc.n.Load() - before; moved != perSession {
				t.Errorf("conn %d session %d moved %d bytes, the first session %d", c, i, moved, perSession)
			}
		}
		cl.Close()
	}
	waitServed(t, srv, conns*sessions)
	m := srv.Metrics()
	if m.OTBaseRuns != conns || m.OTExtensionsReused != conns*sessions {
		t.Fatalf("base runs %d, reused %d: want %d and %d", m.OTBaseRuns, m.OTExtensionsReused, conns, conns*sessions)
	}
	rec := httptest.NewRecorder()
	srv.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	for _, want := range []string{
		fmt.Sprintf("arm2gc_ot_base_runs_total %d", conns),
		fmt.Sprintf("arm2gc_ot_extensions_reused_total %d", conns*sessions),
	} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Errorf("metrics endpoint missing %q", want)
		}
	}
}

// TestBareEvaluateGetsFreshBaseOT: proto.Negotiate plus Session.Evaluate,
// without a Client, proposes no epoch and never learns the grant's, so on
// a connection whose server holds an epoch it must still get fresh base
// OTs and correct outputs, moving exactly the base OTs' bytes more than a
// Client session. A Client carrying on over the same connection
// afterwards proposes the epoch it holds, which the server has replaced:
// it too gets fresh base OTs, then extends again.
func TestBareEvaluateGetsFreshBaseOT(t *testing.T) {
	prog := compileAdd(t)
	eng := NewEngine()
	srv := NewServer(eng)
	if err := srv.Register("add", prog, WithMaxCycles(10_000), WithGarblerInput([]uint32{7})); err != nil {
		t.Fatal(err)
	}
	addr, shutdown := startServer(t, srv)
	defer shutdown()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	raw := &countingConn{Conn: nc}
	cl := NewClient(raw, WithClientEngine(eng))
	defer cl.Close()
	if err := cl.Register("add", prog); err != nil {
		t.Fatal(err)
	}
	client := func(bob uint32) int64 {
		t.Helper()
		before := raw.n.Load()
		info, err := cl.Evaluate(context.Background(), "add", []uint32{bob})
		if err != nil {
			t.Fatal(err)
		}
		if info.Outputs[0] != 7+bob {
			t.Fatalf("client session: sum = %d, want %d", info.Outputs[0], 7+bob)
		}
		return raw.n.Load() - before
	}
	bare := func(bob uint32) int64 {
		t.Helper()
		before := raw.n.Load()
		grant, err := proto.Negotiate(context.Background(), raw, proto.Proposal{Program: "add"})
		if err != nil {
			t.Fatal(err)
		}
		sess, err := eng.Session(prog, WithOutputMode(grant.Outputs), WithCycleBatch(grant.CycleBatch),
			WithMaxCycles(grant.MaxCycles))
		if err != nil {
			t.Fatal(err)
		}
		info, err := sess.Evaluate(context.Background(), raw, []uint32{bob})
		if err != nil {
			t.Fatalf("bare session on a connection holding an epoch: %v", err)
		}
		if info.Outputs[0] != 7+bob {
			t.Fatalf("bare session: sum = %d, want %d", info.Outputs[0], 7+bob)
		}
		return raw.n.Load() - before
	}
	moved := []int64{
		client(1), // extend the set-up's epoch
		client(2), // extend
		bare(3),   // base
		bare(4),   // base
		client(5), // base: the server replaced the Client's epoch
		client(6), // extend
	}
	for i, want := range []int64{moved[0], moved[0], moved[0] + baseOTBytes, moved[0] + baseOTBytes,
		moved[0] + baseOTBytes, moved[0]} {
		if moved[i] != want {
			t.Errorf("session %d moved %d bytes, want %d (an extension moves %d, base OTs %d more)",
				i+1, moved[i], want, moved[0], baseOTBytes)
		}
	}
	waitServed(t, srv, 6)
	if m := srv.Metrics(); m.OTBaseRuns != 4 || m.OTExtensionsReused != 3 {
		t.Fatalf("base runs %d, reused %d: want 4 (set-up and 3 sessions) and 3", m.OTBaseRuns, m.OTExtensionsReused)
	}
}

// TestClientOTStateFreedOnClose: a Client holds at most one epoch per
// registered program and drops them all when it closes; the server holds
// one per program on the connection, so alternating two programs extends
// each program's epoch. A program the server declines to set up stays
// registered and holds nothing.
func TestClientOTStateFreedOnClose(t *testing.T) {
	prog := compileAdd(t)
	eng := NewEngine()
	srv := NewServer(eng)
	for _, name := range []string{"a", "b"} {
		if err := srv.Register(name, prog, WithMaxCycles(10_000)); err != nil {
			t.Fatal(err)
		}
	}
	addr, shutdown := startServer(t, srv)
	defer shutdown()
	cl, err := Dial(context.Background(), addr, WithClientEngine(eng))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b", "never"} {
		if err := cl.Register(name, prog); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"a", "b", "a", "b"} {
		if _, err := cl.Evaluate(context.Background(), name, []uint32{1}); err != nil {
			t.Fatal(err)
		}
	}
	var rej *RejectedError
	if _, err := cl.Evaluate(context.Background(), "never", []uint32{1}); !errors.As(err, &rej) {
		t.Fatalf("session of a program the server lacks: %v, want *RejectedError", err)
	}
	cl.mu.Lock()
	held := len(cl.ots)
	cl.mu.Unlock()
	if held != 3 {
		t.Fatalf("client holds OT state for %d programs, want 3 (one per program proposed)", held)
	}
	cl.Close()
	cl.mu.Lock()
	freed := cl.ots == nil
	cl.mu.Unlock()
	if !freed {
		t.Fatal("a closed client still holds OT state")
	}
	waitServed(t, srv, 4)
	if m := srv.Metrics(); m.OTBaseRuns != 2 || m.OTExtensionsReused != 4 || m.SessionsRejected != 1 {
		t.Fatalf("base runs %d, reused %d, rejected %d: want 2, 4 and 1 (a declined set-up is no rejected session)",
			m.OTBaseRuns, m.OTExtensionsReused, m.SessionsRejected)
	}
}

// TestServerRefusesSecondOTSetup: a connection that holds base OTs for a
// program gets no second set-up for it. The repeat is rejected before any
// cryptography, the connection survives, the rejection counts as no
// session, and a following session still extends the first set-up's
// epoch.
func TestServerRefusesSecondOTSetup(t *testing.T) {
	prog := compileAdd(t)
	eng := NewEngine()
	srv := NewServer(eng)
	if err := srv.Register("add", prog, WithMaxCycles(10_000), WithGarblerInput([]uint32{30})); err != nil {
		t.Fatal(err)
	}
	addr, shutdown := startServer(t, srv)
	defer shutdown()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ctx := context.Background()
	held := new(proto.OTState)
	if err := proto.SetupOT(ctx, conn, proto.Proposal{Program: "add"}, held); err != nil {
		t.Fatal(err)
	}
	var rej *proto.Rejected
	if err := proto.SetupOT(ctx, conn, proto.Proposal{Program: "add"}, new(proto.OTState)); !errors.As(err, &rej) {
		t.Fatalf("second set-up on one connection: got %v, want *proto.Rejected", err)
	}
	if m := srv.Metrics(); m.OTBaseRuns != 1 || m.SessionsRejected != 0 || m.OTSetupsDeclined != 1 {
		t.Fatalf("base runs %d, rejected %d, set-ups declined %d: want 1, 0 and 1",
			m.OTBaseRuns, m.SessionsRejected, m.OTSetupsDeclined)
	}

	grant, err := proto.Negotiate(ctx, conn, proto.Proposal{Program: "add", Epoch: held.Held()})
	if err != nil {
		t.Fatal(err)
	}
	if grant.Epoch != held.Held() {
		t.Fatal("the session after a refused set-up was not granted the held epoch")
	}
	held.Epoch = grant.Epoch
	sess, err := eng.Session(prog, WithOutputMode(grant.Outputs), WithCycleBatch(grant.CycleBatch),
		WithMaxCycles(grant.MaxCycles))
	if err != nil {
		t.Fatal(err)
	}
	info, err := sess.evaluate(ctx, conn, []uint32{12}, held)
	if err != nil {
		t.Fatal(err)
	}
	if info.Outputs[0] != 42 {
		t.Fatalf("sum = %d, want 42", info.Outputs[0])
	}
	waitServed(t, srv, 1)
	if m := srv.Metrics(); m.OTBaseRuns != 1 || m.OTExtensionsReused != 1 {
		t.Fatalf("base runs %d, reused %d: want 1 and 1", m.OTBaseRuns, m.OTExtensionsReused)
	}
}
