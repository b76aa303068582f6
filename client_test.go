package arm2gc

import (
	"context"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"arm2gc/internal/proto"
)

// TestClientEvaluateCancelMidHandshake pins the negotiation window: a
// context cancelled after the proposal is written but before the server
// answers must abort Evaluate promptly — not hang until the crypto run's
// own watcher would have armed.
func TestClientEvaluateCancelMidHandshake(t *testing.T) {
	prog := compileAdd(t)
	ca, cb := net.Pipe()
	defer ca.Close()
	defer cb.Close()

	proposalRead := make(chan struct{})
	go func() {
		// The silent server: decline the OT set-up, then consume the
		// session proposal and never answer.
		if err := declineSetup(cb); err != nil {
			t.Error(err)
		}
		if _, err := proto.ReadProposal(cb); err != nil {
			t.Error(err)
		}
		close(proposalRead)
	}()

	cl := NewClient(ca, WithClientEngine(NewEngine()))
	if err := cl.Register("add", prog); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := cl.Evaluate(ctx, "add", []uint32{1})
		done <- err
	}()
	<-proposalRead
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled mid-handshake Evaluate returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Evaluate did not honor cancellation during the handshake")
	}
	// The connection state is unknown mid-handshake: the client must have
	// latched broken.
	if _, err := cl.Evaluate(context.Background(), "add", []uint32{1}); err == nil ||
		!strings.Contains(err.Error(), "broken") {
		t.Fatalf("client after a cancelled handshake: %v, want broken", err)
	}
}

// TestClientBuildsMachineAtRegister: a Client on its own Engine builds the
// program's netlist in Register, before its OT set-up, so no session's
// negotiation waits on the synthesis; its sessions find the machine cached.
func TestClientBuildsMachineAtRegister(t *testing.T) {
	prog := compileAdd(t)
	srv := NewServer(NewEngine())
	if err := srv.Register("add", prog, WithMaxCycles(10_000), WithGarblerInput([]uint32{7})); err != nil {
		t.Fatal(err)
	}
	addr, shutdown := startServer(t, srv)
	defer shutdown()

	ceng := NewEngine()
	cl, err := Dial(context.Background(), addr, WithClientEngine(ceng))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if got := ceng.Builds(); got != 0 {
		t.Fatalf("builds before Register = %d, want 0", got)
	}
	if err := cl.Register("add", prog); err != nil {
		t.Fatal(err)
	}
	if got := ceng.Builds(); got != 1 {
		t.Fatalf("builds after Register = %d, want 1", got)
	}
	for i := uint32(0); i < 2; i++ {
		info, err := cl.Evaluate(context.Background(), "add", []uint32{i})
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		if info.Outputs[0] != 7+i {
			t.Fatalf("session %d: sum = %d, want %d", i, info.Outputs[0], 7+i)
		}
		if got := ceng.Builds(); got != 1 {
			t.Fatalf("builds after session %d = %d, want 1", i, got)
		}
	}
}

// TestClientEvaluateCancelWhileQueued pins the pre-handshake window the
// seed left open: sessions serialize on the connection, and a caller
// queued behind a stuck session used to block on a bare mutex with its
// context ignored. The cancelled waiter must return promptly and leave
// the connection untouched for the session in flight.
func TestClientEvaluateCancelWhileQueued(t *testing.T) {
	prog := compileAdd(t)
	ca, cb := net.Pipe()
	defer ca.Close()
	defer cb.Close()

	// The first session wedges: its proposal is consumed, no answer comes.
	go func() {
		if err := declineSetup(cb); err != nil {
			t.Error(err)
		}
		if _, err := proto.ReadProposal(cb); err != nil {
			t.Error(err)
		}
	}()
	cl := NewClient(ca, WithClientEngine(NewEngine()))
	if err := cl.Register("add", prog); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	firstCtx, stopFirst := context.WithCancel(context.Background())
	defer stopFirst()
	go func() {
		defer wg.Done()
		cl.Evaluate(firstCtx, "add", []uint32{1})
	}()

	// Second caller: a deadline well shorter than the first session's
	// lifetime. Before the fix this blocked until the first returned.
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := cl.Evaluate(ctx, "add", []uint32{2})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued Evaluate returned %v, want context.DeadlineExceeded", err)
	}
	if waited := time.Since(start); waited > 3*time.Second {
		t.Fatalf("queued Evaluate ignored its context for %v", waited)
	}
	stopFirst()
	wg.Wait()
}

// pipeListener feeds net.Pipe connections through the net.Listener
// interface, so server tests can exercise true rendezvous writes (a pipe
// write blocks until the peer reads — unlike TCP, whose kernel buffers
// absorb small frames).
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

// dial hands one end of a fresh pipe to the accept loop.
func (l *pipeListener) dial(t testing.TB) net.Conn {
	t.Helper()
	a, b := net.Pipe()
	select {
	case l.conns <- b:
	case <-time.After(5 * time.Second):
		t.Fatal("server did not accept the pipe connection")
	}
	return a
}

// TestServerShutdownUnblocksStuckGrant pins the drain-path leak the seed
// had: a handler blocked writing a grant to a peer that never reads it
// sits outside any context-guarded protocol run, so cancelling the
// session context could not unblock it and Serve's wg.Wait hung forever.
// Shutdown must now force-close surviving connections after the drain and
// return.
func TestServerShutdownUnblocksStuckGrant(t *testing.T) {
	prog := compileAdd(t)
	eng := NewEngine()
	srv := NewServer(eng, WithDrainTimeout(200*time.Millisecond))
	if err := srv.Register("add", prog, WithMaxCycles(10_000), WithGarblerInput([]uint32{1})); err != nil {
		t.Fatal(err)
	}
	ln := newPipeListener()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()

	// The hostile peer: propose, then never read the grant. Over a pipe
	// the server's grant write blocks at the rendezvous.
	conn := ln.dial(t)
	defer conn.Close()
	if err := proto.WriteProposal(conn, proto.Proposal{Program: "add"}); err != nil {
		t.Fatal(err)
	}
	// Give the handler time to reach the blocked grant write.
	time.Sleep(100 * time.Millisecond)

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v on shutdown, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve leaked the handler stuck writing a grant: wg.Wait never returned")
	}
}

// TestServerShutdownWithIdleAndFreshConns: shutdown with an idle
// connection (no proposal yet) and a connection mid-dial must still
// return promptly — the helper's shutdown asserts Serve comes back —
// and the completed session stays counted.
func TestServerShutdownWithIdleAndFreshConns(t *testing.T) {
	prog := compileAdd(t)
	eng := NewEngine()
	srv := NewServer(eng, WithDrainTimeout(10*time.Second))
	if err := srv.Register("add", prog, WithMaxCycles(10_000), WithGarblerInput([]uint32{7})); err != nil {
		t.Fatal(err)
	}
	addr, shutdown := startServer(t, srv)

	// An idle connection: dialed, no proposal.
	idle, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()

	cl, err := Dial(context.Background(), addr, WithClientEngine(eng))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Register("add", prog); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Evaluate(context.Background(), "add", []uint32{1}); err != nil {
		t.Fatal(err)
	}
	shutdown()
	m := srv.Metrics()
	if m.SessionsServed != 1 {
		t.Fatalf("served = %d, want 1", m.SessionsServed)
	}
	if m.ConnectionsActive != 0 {
		t.Fatalf("connections still active after shutdown: %d", m.ConnectionsActive)
	}
}

// TestClientRefusesContradictingGrant: a grant that changes an option the
// proposal set explicitly — even one carrying the session id the client
// itself derives from the granted options — fails Evaluate, and the
// client writes no byte after its proposal. The scripted server checks the
// proposal it reads, answers with the contradicting grant, then counts
// what the client sends until it hangs up.
func TestClientRefusesContradictingGrant(t *testing.T) {
	prog := compileAdd(t)
	for _, tc := range []struct {
		name  string
		opt   Option
		grant proto.Grant
	}{
		{"outputs", WithOutputMode(OutputEvaluatorOnly), proto.Grant{Outputs: OutputBoth, CycleBatch: 1, MaxCycles: 1000}},
		{"cycle-batch", WithCycleBatch(4), proto.Grant{Outputs: OutputBoth, CycleBatch: 8, MaxCycles: 1000}},
		{"max-cycles", WithMaxCycles(500), proto.Grant{Outputs: OutputBoth, CycleBatch: 1, MaxCycles: 501}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sess, err := NewEngine().Session(prog, WithOutputMode(tc.grant.Outputs),
				WithCycleBatch(tc.grant.CycleBatch), WithMaxCycles(tc.grant.MaxCycles))
			if err != nil {
				t.Fatal(err)
			}
			grant := tc.grant
			if grant.SessionID, err = sess.sessionID(); err != nil {
				t.Fatal(err)
			}
			grant.Epoch[0] = 1 // a fresh epoch: the session would run the base OTs

			ca, cb := net.Pipe()
			defer ca.Close()
			defer cb.Close()
			after := make(chan int64, 1)
			go func() {
				defer close(after)
				if err := declineSetup(cb); err != nil {
					t.Error(err)
					return
				}
				prop, err := proto.ReadProposal(cb)
				if err != nil {
					t.Error(err)
					return
				}
				if !prop.HasOutputs && prop.CycleBatch == 0 && prop.MaxCycles == 0 {
					t.Errorf("proposal sets no option: %+v", prop)
				}
				if err := proto.WriteGrant(cb, grant); err != nil {
					t.Error(err)
					return
				}
				n, _ := io.Copy(io.Discard, cb)
				after <- n
			}()

			cl := NewClient(ca, WithClientEngine(NewEngine()))
			if err := cl.Register("add", prog); err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() {
				_, err := cl.Evaluate(context.Background(), "add", []uint32{1}, tc.opt)
				done <- err
			}()
			select {
			case err := <-done:
				if err == nil || !strings.Contains(err.Error(), "the proposal asked for") {
					t.Fatalf("Evaluate under a contradicting grant: %v, want a refusal", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Evaluate ran on under a grant that contradicts its proposal")
			}
			if n := <-after; n != 0 {
				t.Fatalf("client wrote %d bytes after its proposal", n)
			}
		})
	}
}
