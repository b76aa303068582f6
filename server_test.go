package arm2gc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/iotest"
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

// TestServerRejectsRemovedMemBackend: memory-backend pinning is gone, so a
// proposal from a client that still pins one — its flags byte carries the
// retired bit — gets a rejection that says why, and the next session on
// the same connection runs on the backend the layout picks.
func TestServerRejectsRemovedMemBackend(t *testing.T) {
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
	// The proposal a backend-pinning client sent for "scan": type, length,
	// name, flags (framed, memory backend), mode, batch, cycles, the
	// reserved slot, the backend name.
	frame := []byte{
		0x10, 29, 0, 0, 0,
		3, 0, 'a', 'd', 'd',
		0x0C, 0,
		0, 0, 0, 0,
		0, 0, 0, 0, 0, 0, 0, 0,
		0, 0, 0, 0,
		4, 0, 's', 'c', 'a', 'n',
	}
	if _, err := raw.Write(frame); err != nil {
		t.Fatal(err)
	}
	payload, err := wire.Read(raw, wire.Reject, 0, proto.MaxRejectBytes)
	if err != nil {
		t.Fatalf("got %v; want a rejection", err)
	}
	if reason := string(payload); !strings.Contains(reason, "memory backend") || !strings.Contains(reason, "removed") {
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
	if m := srv.Metrics(); m.NegotiationFailures != 1 {
		t.Errorf("negotiation failures = %d, want 1", m.NegotiationFailures)
	}
}

// TestServerPanicCostsOneConnection: a WithAuthorize callback that panics
// closes its own connection, logged with the stack and counted in
// SessionPanics. Sessions on another connection run on through it, and
// Serve keeps accepting. The callback first runs on the OT set-up that
// Client.Register sends, so the victim's connection dies there.
func TestServerPanicCostsOneConnection(t *testing.T) {
	prog := compileAdd(t)
	eng := NewEngine()
	var logMu sync.Mutex
	var logs strings.Builder
	srv := NewServer(eng, WithServerLog(func(format string, args ...any) {
		logMu.Lock()
		defer logMu.Unlock()
		fmt.Fprintf(&logs, format+"\n", args...)
	}))
	if err := srv.Register("add", prog, WithMaxCycles(10_000), WithGarblerInput([]uint32{100})); err != nil {
		t.Fatal(err)
	}
	if err := srv.Register("trap", prog, WithMaxCycles(10_000),
		WithAuthorize(func(Peer, string) error { panic("policy bug") })); err != nil {
		t.Fatal(err)
	}
	addr, shutdown := startServer(t, srv)
	dial := func() *Client {
		t.Helper()
		cl, err := Dial(context.Background(), addr, WithClientEngine(eng))
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Register("add", prog); err != nil {
			t.Fatal(err)
		}
		return cl
	}
	healthy, victim := dial(), dial()
	defer healthy.Close()
	defer victim.Close()

	sessions := make(chan error, 1)
	go func() {
		for i := 0; i < 4; i++ {
			info, err := healthy.Evaluate(context.Background(), "add", []uint32{uint32(i)})
			if err == nil && info.Outputs[0] != 100+uint32(i) {
				err = fmt.Errorf("sum = %d, want %d", info.Outputs[0], 100+i)
			}
			if err != nil {
				sessions <- fmt.Errorf("session %d: %w", i, err)
				return
			}
		}
		sessions <- nil
	}()
	if err := victim.Register("trap", prog); err == nil {
		t.Fatal("an OT set-up whose authorization panicked succeeded")
	}
	if _, err := victim.Evaluate(context.Background(), "add", []uint32{1}); err == nil ||
		!strings.Contains(err.Error(), "broken") {
		t.Fatalf("the panicking connection still served: %v", err)
	}
	if err := <-sessions; err != nil {
		t.Fatalf("concurrent session on another connection: %v", err)
	}
	late := dial()
	defer late.Close()
	if info, err := late.Evaluate(context.Background(), "add", []uint32{7}); err != nil || info.Outputs[0] != 107 {
		t.Fatalf("a new connection after the panic: %v, %v", info, err)
	}

	// Shutdown waits for every handler, so the counters are settled.
	shutdown()
	if m := srv.Metrics(); m.SessionPanics != 1 || m.SessionsFailed != 0 || m.SessionsServed != 5 {
		t.Errorf("panics %d failed %d served %d, want 1/0/5", m.SessionPanics, m.SessionsFailed, m.SessionsServed)
	}
	rec := httptest.NewRecorder()
	srv.MetricsHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if want := "arm2gc_session_panics_total 1"; !strings.Contains(rec.Body.String(), want) {
		t.Errorf("text scrape missing %q", want)
	}
	logMu.Lock()
	defer logMu.Unlock()
	if got := logs.String(); !strings.Contains(got, "policy bug") || !strings.Contains(got, "goroutine ") {
		t.Errorf("server log %q lacks the panic value and its stack", got)
	}
}

// TestServerRefillPanicCounted: a callback that panics inside a
// garble-ahead refill fails that refill — an error from WarmGarbleAhead,
// a refill failure, one SessionPanics — instead of the process. The
// refill held the trace cache's recording slot when it panicked; the slot
// is released, so a later session records the trace and the next replays.
func TestServerRefillPanicCounted(t *testing.T) {
	prog := compileAdd(t)
	eng := NewEngine()
	srv := NewServer(eng, WithGarbleAhead(PoolConfig{}))
	if err := srv.Register("add", prog, WithMaxCycles(10_000),
		WithStatsSink(func(CycleUpdate) { panic("sink bug") })); err != nil {
		t.Fatal(err)
	}
	if err := srv.WarmGarbleAhead(context.Background()); err == nil || !strings.Contains(err.Error(), "sink bug") {
		t.Fatalf("WarmGarbleAhead returned %v, want the refill's panic as an error", err)
	}
	m := srv.Metrics()
	if m.SessionPanics != 1 || m.GarbleAhead.RefillFailures != 1 {
		t.Errorf("panics %d refill failures %d, want 1/1", m.SessionPanics, m.GarbleAhead.RefillFailures)
	}
	for i := 0; i < 2; i++ {
		s, err := eng.Session(prog, WithMaxCycles(10_000))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(context.Background(), []uint32{1}, []uint32{2}); err != nil {
			t.Fatal(err)
		}
	}
	if got := eng.TraceReplays(); got != 1 {
		t.Errorf("trace replays %d after a panicked recording, want 1", got)
	}
}

// TestFailingRandIsAnError: a label-randomness source that fails is an
// error from every garbling path — in process, live and offline — and
// nothing reaches the wire.
func TestFailingRandIsAnError(t *testing.T) {
	prog := compileAdd(t)
	eng := NewEngine()
	errRNG := errors.New("entropy source gone")
	session := func() *Session {
		t.Helper()
		// The fingerprint seed and a label or two succeed; the draw then
		// fails part-way through the labels.
		rnd := io.MultiReader(bytes.NewReader(make([]byte, 40)), iotest.ErrReader(errRNG))
		s, err := eng.Session(prog, WithMaxCycles(10_000), WithRand(rnd))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	ctx := context.Background()
	if _, err := session().Run(ctx, []uint32{1}, []uint32{2}); !errors.Is(err, errRNG) {
		t.Errorf("Run: got %v, want the randomness error", err)
	}
	var conn bytes.Buffer
	if _, err := session().Garble(ctx, &conn, []uint32{1}); !errors.Is(err, errRNG) {
		t.Errorf("Garble: got %v, want the randomness error", err)
	}
	if conn.Len() != 0 {
		t.Errorf("Garble wrote %d bytes before failing", conn.Len())
	}
	if _, err := session().record(ctx); !errors.Is(err, errRNG) {
		t.Errorf("Record: got %v, want the randomness error", err)
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
	srv := NewServer(eng, WithGarbleAhead(PoolConfig{}))
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
