package arm2gc

import (
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"arm2gc/internal/proto"
	"arm2gc/internal/wire"
)

// startServer spins up a Server over a fresh TCP listener and returns its
// address plus a shutdown function that cancels Serve and waits for it.
func startServer(t *testing.T, srv *Server) (addr string, shutdown func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()
	return ln.Addr().String(), func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("Serve returned %v on shutdown, want nil", err)
			}
		case <-time.After(10 * time.Second):
			t.Error("Serve did not return after shutdown")
		}
	}
}

// TestServerConcurrentClients is the acceptance anchor: one Server over
// one Engine garbles for 8 concurrent evaluator clients — through a
// 4-session concurrency limit — with exactly one netlist synthesis.
func TestServerConcurrentClients(t *testing.T) {
	prog := compileAdd(t)
	eng := NewEngine()
	srv := NewServer(eng, WithMaxSessions(4))
	if err := srv.Register("add", prog,
		WithMaxCycles(10_000),
		WithCycleBatch(4),
		WithGarblerInput([]uint32{100})); err != nil {
		t.Fatal(err)
	}
	addr, shutdown := startServer(t, srv)

	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl, err := Dial(context.Background(), addr, WithClientEngine(eng))
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			if err := cl.Register("add", prog); err != nil {
				errs <- err
				return
			}
			info, err := cl.Evaluate(context.Background(), "add", []uint32{uint32(i)})
			if err != nil {
				errs <- err
				return
			}
			if info.Outputs[0] != 100+uint32(i) {
				t.Errorf("client %d: sum = %d, want %d", i, info.Outputs[0], 100+i)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Shutdown waits for every handler, so the served count is settled.
	shutdown()
	if got := eng.Builds(); got != 1 {
		t.Fatalf("%d concurrent sessions performed %d netlist builds, want 1", clients, got)
	}
	if got := srv.SessionsServed(); got != clients {
		t.Fatalf("server counted %d sessions, want %d", got, clients)
	}
}

// countingListener counts accepted connections.
type countingListener struct {
	net.Listener
	accepts atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepts.Add(1)
	}
	return c, err
}

// TestClientConnectionReuse runs several sequential sessions — including
// per-session option overrides — over one dialed connection, then checks
// shutdown closes the idle connection promptly.
func TestClientConnectionReuse(t *testing.T) {
	prog := compileAdd(t)
	eng := NewEngine()
	srv := NewServer(eng)
	if err := srv.Register("add", prog, WithMaxCycles(10_000), WithGarblerInput([]uint32{7})); err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cln := &countingListener{Listener: ln}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, cln) }()

	cl, err := Dial(context.Background(), ln.Addr().String(), WithClientEngine(eng))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Register("add", prog); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		opts := []Option{}
		if i%2 == 1 {
			// Per-session overrides within the registration's bounds.
			opts = append(opts, WithCycleBatch(8), WithMaxCycles(5_000))
		}
		info, err := cl.Evaluate(context.Background(), "add", []uint32{uint32(10 * i)}, opts...)
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		if info.Outputs[0] != 7+uint32(10*i) {
			t.Fatalf("session %d: sum = %d, want %d", i, info.Outputs[0], 7+10*i)
		}
	}
	if got := cln.accepts.Load(); got != 1 {
		t.Fatalf("4 sessions used %d connections, want 1", got)
	}

	// Graceful shutdown: the connection is idle between sessions, so
	// Serve must close it and return promptly.
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v on shutdown, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return with an idle connection open")
	}
	if got := srv.SessionsServed(); got != 4 {
		t.Fatalf("server counted %d sessions, want 4", got)
	}
	if _, err := cl.Evaluate(context.Background(), "add", []uint32{1}); err == nil {
		t.Fatal("Evaluate succeeded against a shut-down server")
	}
}

// TestServerNegotiationRejects covers the rejection cases — and that a
// rejection costs neither the connection nor the server.
func TestServerNegotiationRejects(t *testing.T) {
	prog := compileAdd(t)
	eng := NewEngine()
	srv := NewServer(eng)
	if err := srv.Register("add", prog, WithMaxCycles(1_000), WithGarblerInput([]uint32{1})); err != nil {
		t.Fatal(err)
	}
	addr, shutdown := startServer(t, srv)

	cl, err := Dial(context.Background(), addr, WithClientEngine(eng))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Register("add", prog); err != nil {
		t.Fatal(err)
	}
	if err := cl.Register("other", prog); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		prog   string
		opts   []Option
		reason string
	}{
		{"unknown program", "other", nil, "not available"},
		{"output mode mismatch", "add", []Option{WithOutputMode(OutputEvaluatorOnly)}, "output mode"},
		{"over budget", "add", []Option{WithMaxCycles(100_000)}, "exceeds the registered limit"},
	}
	for _, tc := range cases {
		_, err := cl.Evaluate(context.Background(), tc.prog, []uint32{2}, tc.opts...)
		var rej *RejectedError
		if !errors.As(err, &rej) {
			t.Fatalf("%s: got %v, want *RejectedError", tc.name, err)
		}
		if !strings.Contains(rej.Reason, tc.reason) {
			t.Errorf("%s: reason %q does not mention %q", tc.name, rej.Reason, tc.reason)
		}
	}

	// Rejections must not poison the connection: a valid session still
	// runs, on the same conn, with an explicitly matching mode.
	info, err := cl.Evaluate(context.Background(), "add", []uint32{2}, WithOutputMode(OutputBoth))
	if err != nil {
		t.Fatalf("valid session after rejections: %v", err)
	}
	if info.Outputs[0] != 3 {
		t.Fatalf("sum = %d, want 3", info.Outputs[0])
	}
	cl.Close()
	shutdown()
	if got := srv.SessionsServed(); got != 1 {
		t.Fatalf("server counted %d sessions, want 1", got)
	}
}

// TestServerRejectsRemovedWorkers: the per-cycle worker knob is gone, but
// its uint32 is still on the wire as a reserved slot. An older client that
// fills it with a count above 1 gets a rejection that says why — not a
// dropped connection — and the next session on the same conn runs.
func TestServerRejectsRemovedWorkers(t *testing.T) {
	prog := compileAdd(t)
	eng := NewEngine()
	srv := NewServer(eng)
	if err := srv.Register("add", prog, WithMaxCycles(10_000), WithGarblerInput([]uint32{1})); err != nil {
		t.Fatal(err)
	}
	addr, shutdown := startServer(t, srv)
	defer shutdown()

	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	// The proposal a pre-removal client asking for 4 workers sent: type,
	// length, name, flags, mode, batch, cycles, workers.
	frame := []byte{
		0x10, 23, 0, 0, 0,
		3, 0, 'a', 'd', 'd',
		0, 0,
		0, 0, 0, 0,
		0, 0, 0, 0, 0, 0, 0, 0,
		4, 0, 0, 0,
	}
	if _, err := raw.Write(frame); err != nil {
		t.Fatal(err)
	}
	payload, err := wire.Read(raw, wire.Reject, 0, proto.MaxRejectBytes)
	if err != nil {
		t.Fatalf("got %v; want a rejection", err)
	}
	if reason := string(payload); !strings.Contains(reason, "worker count of 4") || !strings.Contains(reason, "removed") {
		t.Errorf("rejection reason %q does not explain the removed knob", reason)
	}

	cl := NewClient(raw, WithClientEngine(eng))
	if err := cl.Register("add", prog); err != nil {
		t.Fatal(err)
	}
	info, err := cl.Evaluate(context.Background(), "add", []uint32{2})
	if err != nil {
		t.Fatalf("session after the rejection, same conn: %v", err)
	}
	if info.Outputs[0] != 3 {
		t.Fatalf("sum = %d, want 3", info.Outputs[0])
	}
}

// TestServerRejectsOlderProtocol: a proposal from a client on the protocol
// before the one frame format — its flags byte lacks the framed bit — gets
// a rejection that says why, before any cryptography, and the next session
// on the same connection runs.
func TestServerRejectsOlderProtocol(t *testing.T) {
	prog := compileAdd(t)
	eng := NewEngine()
	srv := NewServer(eng)
	if err := srv.Register("add", prog, WithMaxCycles(10_000), WithGarblerInput([]uint32{1})); err != nil {
		t.Fatal(err)
	}
	addr, shutdown := startServer(t, srv)
	defer shutdown()

	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	// The proposal an older client sent: type, length, name, flags (none),
	// mode, batch, cycles, the reserved slot.
	frame := []byte{
		0x10, 23, 0, 0, 0,
		3, 0, 'a', 'd', 'd',
		0, 0,
		0, 0, 0, 0,
		0, 0, 0, 0, 0, 0, 0, 0,
		0, 0, 0, 0,
	}
	if _, err := raw.Write(frame); err != nil {
		t.Fatal(err)
	}
	payload, err := wire.Read(raw, wire.Reject, 0, proto.MaxRejectBytes)
	if err != nil {
		t.Fatalf("got %v; want a rejection", err)
	}
	if reason := string(payload); !strings.Contains(reason, "older protocol version") {
		t.Errorf("rejection reason %q does not name the protocol version", reason)
	}

	cl := NewClient(raw, WithClientEngine(eng))
	if err := cl.Register("add", prog); err != nil {
		t.Fatal(err)
	}
	info, err := cl.Evaluate(context.Background(), "add", []uint32{2})
	if err != nil {
		t.Fatalf("session after the rejection, same conn: %v", err)
	}
	if info.Outputs[0] != 3 {
		t.Fatalf("sum = %d, want 3", info.Outputs[0])
	}
	if m := srv.Metrics(); m.NegotiationFailures != 1 {
		t.Errorf("negotiation failures = %d, want 1", m.NegotiationFailures)
	}
}

// TestClientProgramMismatch: same name, different binary — the granted
// session id must not verify, and the failure must name the cause instead
// of dying mid-handshake.
func TestClientProgramMismatch(t *testing.T) {
	prog := compileAdd(t)
	other, _, err := CompileC("add", `void gc_main(const int *a, const int *b, int *c) { c[0] = a[0] ^ b[0]; }`, testLayout())
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine()
	srv := NewServer(eng)
	if err := srv.Register("add", prog, WithGarblerInput([]uint32{1})); err != nil {
		t.Fatal(err)
	}
	addr, shutdown := startServer(t, srv)
	defer shutdown()

	cl, err := Dial(context.Background(), addr, WithClientEngine(eng))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Register("add", other); err != nil {
		t.Fatal(err)
	}
	_, err = cl.Evaluate(context.Background(), "add", []uint32{2})
	if err == nil || !strings.Contains(err.Error(), "session id mismatch") {
		t.Fatalf("got %v, want a session id mismatch error", err)
	}
	// The connection state is unknown after a divergence; the client
	// must refuse further use rather than desynchronize.
	if _, err := cl.Evaluate(context.Background(), "add", []uint32{2}); err == nil ||
		!strings.Contains(err.Error(), "broken") {
		t.Fatalf("broken client accepted another session: %v", err)
	}
}

// TestServerSessionTimeoutFreesSlot: a client that wins the grant and
// then goes silent must not pin its WithMaxSessions slot forever — the
// session timeout aborts it and a healthy client gets served.
func TestServerSessionTimeoutFreesSlot(t *testing.T) {
	prog := compileAdd(t)
	eng := NewEngine()
	srv := NewServer(eng, WithMaxSessions(1), WithSessionTimeout(2*time.Second))
	if err := srv.Register("add", prog, WithGarblerInput([]uint32{1})); err != nil {
		t.Fatal(err)
	}
	addr, shutdown := startServer(t, srv)
	defer shutdown()

	// The stalling client: proposes, receives the grant (the slot is
	// held from before the grant is written), then never runs the
	// session.
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if _, err := proto.Negotiate(context.Background(), raw, proto.Proposal{Program: "add"}); err != nil {
		t.Fatal(err)
	}

	cl, err := Dial(context.Background(), addr, WithClientEngine(eng))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Register("add", prog); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	info, err := cl.Evaluate(ctx, "add", []uint32{2})
	if err != nil {
		t.Fatalf("healthy client behind a stalled one: %v", err)
	}
	if info.Outputs[0] != 3 {
		t.Fatalf("sum = %d, want 3", info.Outputs[0])
	}
}

// TestServerRegisterValidation covers registration-time failures.
func TestServerRegisterValidation(t *testing.T) {
	prog := compileAdd(t)
	srv := NewServer(NewEngine())
	if err := srv.Register("", prog); err != nil {
		t.Fatalf("registering under the program's own name: %v", err)
	}
	if err := srv.Register("add", prog); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if err := srv.Register("bad", prog, WithCycleBatch(0)); err == nil {
		t.Fatal("invalid defaults accepted")
	}
	if err := srv.Register("nil", nil); err == nil {
		t.Fatal("nil program accepted")
	}
}

// TestServerRetire: a retired program rejects like an unknown one (same
// wording, connection kept), its garble-ahead entries are dropped, and
// the name is free for a fresh registration — the live registry op the
// fleet admin endpoint builds on.
func TestServerRetire(t *testing.T) {
	prog := compileAdd(t)
	eng := NewEngine()
	srv := NewServer(eng, WithGarbleAhead(PoolConfig{Depth: 2}))
	if err := srv.Register("add", prog,
		WithMaxCycles(10_000),
		WithGarblerInput([]uint32{100})); err != nil {
		t.Fatal(err)
	}
	if err := srv.WarmGarbleAhead(context.Background()); err != nil {
		t.Fatal(err)
	}
	addr, shutdown := startServer(t, srv)
	defer shutdown()

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

	if err := srv.Retire("add"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Retire("add"); err == nil {
		t.Fatal("double Retire accepted")
	}
	if ga := srv.Metrics().GarbleAhead; ga == nil || ga.Ready != 0 {
		t.Fatalf("garble-ahead entries survive Retire: %+v", ga)
	}
	var rej *RejectedError
	if _, err := cl.Evaluate(context.Background(), "add", []uint32{1}); !errors.As(err, &rej) {
		t.Fatalf("retired program: got %v, want *RejectedError", err)
	} else if !strings.Contains(rej.Reason, "not available to this peer") {
		t.Fatalf("retired rejection reads %q; must match the unknown-program wording", rej.Reason)
	}

	// The connection survived, and the name is registrable again.
	if err := srv.Register("add", prog,
		WithMaxCycles(10_000),
		WithGarblerInput([]uint32{200})); err != nil {
		t.Fatalf("re-register after Retire: %v", err)
	}
	info, err := cl.Evaluate(context.Background(), "add", []uint32{1})
	if err != nil {
		t.Fatalf("session after re-register: %v", err)
	}
	if info.Outputs[0] != 201 {
		t.Fatalf("sum = %d, want 201 (new registration's input)", info.Outputs[0])
	}
}
