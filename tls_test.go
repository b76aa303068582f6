package arm2gc

import (
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"net"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"arm2gc/internal/devcert"
	"arm2gc/internal/proto"
)

// compileXor is a second distinct program for multi-program servers.
func compileXor(t testing.TB) *Program {
	t.Helper()
	prog, _, err := CompileC("xor", `void gc_main(const int *a, const int *b, int *c) { c[0] = a[0] ^ b[0]; }`, testLayout())
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// newTestCA mints a fresh throwaway CA per test.
func newTestCA(t testing.TB) *devcert.CA {
	t.Helper()
	ca, err := devcert.NewCA("test CA")
	if err != nil {
		t.Fatal(err)
	}
	return ca
}

// TestServerTLSRoundTrip is the hardening acceptance anchor: a server
// with TLS and per-program bearer tokens hosts two programs; one
// authorized client runs both over a single TLS connection, an
// unauthorized proposal in between is rejected without dropping that
// connection, and the metrics report the exact counts.
func TestServerTLSRoundTrip(t *testing.T) {
	add, xor := compileAdd(t), compileXor(t)
	ca := newTestCA(t)
	srvTLS, err := devcert.ServerConfig(ca, false)
	if err != nil {
		t.Fatal(err)
	}
	clTLS, err := devcert.ClientConfig(ca, "")
	if err != nil {
		t.Fatal(err)
	}

	eng := NewEngine()
	srv := NewServer(eng, WithTLSConfig(srvTLS))
	if err := srv.Register("add", add, WithMaxCycles(10_000), WithGarblerInput([]uint32{100}), WithAuthToken("team-a")); err != nil {
		t.Fatal(err)
	}
	if err := srv.Register("xor", xor, WithMaxCycles(10_000), WithGarblerInput([]uint32{0xf0}), WithAuthToken("team-a")); err != nil {
		t.Fatal(err)
	}
	addr, shutdown := startServer(t, srv)

	cl, err := DialTLS(context.Background(), addr, clTLS, WithClientEngine(eng))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Register("add", add); err != nil {
		t.Fatal(err)
	}
	if err := cl.Register("xor", xor); err != nil {
		t.Fatal(err)
	}

	// Two different programs over the one TLS connection.
	info, err := cl.Evaluate(context.Background(), "add", []uint32{23}, WithAuthToken("team-a"))
	if err != nil {
		t.Fatalf("add over TLS: %v", err)
	}
	if info.Outputs[0] != 123 {
		t.Fatalf("add = %d, want 123", info.Outputs[0])
	}
	// An unauthorized proposal in between must not cost the connection.
	_, err = cl.Evaluate(context.Background(), "xor", []uint32{0x0f}, WithAuthToken("wrong"))
	var rej *RejectedError
	if !errors.As(err, &rej) {
		t.Fatalf("wrong token: got %v, want *RejectedError", err)
	}
	if !strings.Contains(rej.Reason, "not available") {
		t.Errorf("rejection reason %q is not the uniform admission rejection", rej.Reason)
	}
	info, err = cl.Evaluate(context.Background(), "xor", []uint32{0x0f}, WithAuthToken("team-a"))
	if err != nil {
		t.Fatalf("xor after a rejection on the same conn: %v", err)
	}
	if info.Outputs[0] != 0xff {
		t.Fatalf("xor = %#x, want 0xff", info.Outputs[0])
	}
	cl.Close()
	shutdown()

	m := srv.Metrics()
	if m.SessionsServed != 2 || m.SessionsRejected != 1 || m.SessionsActive != 0 {
		t.Fatalf("metrics served/rejected/active = %d/%d/%d, want 2/1/0",
			m.SessionsServed, m.SessionsRejected, m.SessionsActive)
	}
	if p := m.Programs["add"]; p.Served != 1 || p.Rejected != 0 {
		t.Errorf("add counters %+v, want served 1 rejected 0", p)
	}
	if p := m.Programs["xor"]; p.Served != 1 || p.Rejected != 1 {
		t.Errorf("xor counters %+v, want served 1 rejected 1", p)
	}
	if m.ConnectionsAccepted != 1 {
		t.Errorf("connections accepted = %d, want 1", m.ConnectionsAccepted)
	}
	if m.BytesRead == 0 || m.BytesWritten == 0 || m.TableFrames == 0 || m.Cycles == 0 {
		t.Errorf("wire/work counters empty: %+v", m)
	}
	// One netlist build per distinct fitted layout — CompileC sizes the
	// instruction memory to each program, so the two may or may not share.
	wantBuilds := int64(2)
	if add.Layout == xor.Layout {
		wantBuilds = 1
	}
	if m.EngineBuilds != wantBuilds {
		t.Errorf("engine builds = %d, want %d", m.EngineBuilds, wantBuilds)
	}
}

// TestServerMutualTLSAuthorize: the WithAuthorize policy sees the
// verified client-certificate identity under mutual TLS and admits by
// common name; a client with the wrong identity is rejected before any
// cryptography, without losing its connection.
func TestServerMutualTLSAuthorize(t *testing.T) {
	prog := compileAdd(t)
	ca := newTestCA(t)
	srvTLS, err := devcert.ServerConfig(ca, true)
	if err != nil {
		t.Fatal(err)
	}
	goodTLS, err := devcert.ClientConfig(ca, "alice")
	if err != nil {
		t.Fatal(err)
	}
	badTLS, err := devcert.ClientConfig(ca, "mallory")
	if err != nil {
		t.Fatal(err)
	}

	eng := NewEngine()
	srv := NewServer(eng, WithTLSConfig(srvTLS))
	err = srv.Register("add", prog, WithMaxCycles(10_000), WithGarblerInput([]uint32{1}),
		WithAuthorize(func(peer Peer, program string) error {
			if peer.CommonName() != "alice" {
				return fmt.Errorf("peer %q is not allowed to run %q", peer.CommonName(), program)
			}
			return nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	addr, shutdown := startServer(t, srv)
	defer shutdown()

	good, err := DialTLS(context.Background(), addr, goodTLS, WithClientEngine(eng))
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()
	if err := good.Register("add", prog); err != nil {
		t.Fatal(err)
	}
	info, err := good.Evaluate(context.Background(), "add", []uint32{41})
	if err != nil {
		t.Fatalf("authorized mTLS client: %v", err)
	}
	if info.Outputs[0] != 42 {
		t.Fatalf("sum = %d, want 42", info.Outputs[0])
	}

	bad, err := DialTLS(context.Background(), addr, badTLS, WithClientEngine(eng))
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	if err := bad.Register("add", prog); err != nil {
		t.Fatal(err)
	}
	_, err = bad.Evaluate(context.Background(), "add", []uint32{41})
	var rej *RejectedError
	if !errors.As(err, &rej) {
		t.Fatalf("mallory: got %v, want *RejectedError", err)
	}
	if !strings.Contains(rej.Reason, "mallory") {
		t.Errorf("rejection reason %q does not name the peer", rej.Reason)
	}
	// The rejected client's connection survives: an authorized follow-up
	// would need a different cert, but unauthenticated traffic like a
	// second (still rejected) proposal must not find a dead conn.
	if _, err = bad.Evaluate(context.Background(), "add", []uint32{41}); !errors.As(err, &rej) {
		t.Fatalf("second proposal on the rejected conn: got %v, want *RejectedError", err)
	}

	// A client without any certificate fails the TLS handshake itself.
	nocert, err := devcert.ClientConfig(ca, "")
	if err != nil {
		t.Fatal(err)
	}
	anon, err := DialTLS(context.Background(), addr, nocert, WithClientEngine(eng))
	if err == nil {
		// TLS 1.3 reports missing client certs on first read, not in the
		// handshake: the OT set-up Register proposes must then fail, and
		// so must every session after it.
		if err := anon.Register("add", prog); err == nil {
			t.Fatal("certificate-less client ran an OT set-up under mutual TLS")
		}
		if _, err := anon.Evaluate(context.Background(), "add", []uint32{1}); err == nil {
			t.Fatal("certificate-less client ran a session under mutual TLS")
		}
		anon.Close()
	}
}

// TestServerTLSListenerPassThrough: an operator terminating TLS with
// tls.NewListener instead of WithTLSConfig must still get the mTLS peer
// identity in WithAuthorize — the byte counter wraps outside the
// *tls.Conn in that layering, and peerOf must look through it.
func TestServerTLSListenerPassThrough(t *testing.T) {
	prog := compileAdd(t)
	ca := newTestCA(t)
	srvTLS, err := devcert.ServerConfig(ca, true)
	if err != nil {
		t.Fatal(err)
	}
	clTLS, err := devcert.ClientConfig(ca, "alice")
	if err != nil {
		t.Fatal(err)
	}

	eng := NewEngine()
	srv := NewServer(eng) // no WithTLSConfig: the listener terminates TLS
	if err := srv.Register("add", prog, WithMaxCycles(10_000), WithGarblerInput([]uint32{1}),
		WithAuthorize(func(peer Peer, program string) error {
			if peer.CommonName() != "alice" {
				return fmt.Errorf("peer %q is not allowed", peer.CommonName())
			}
			return nil
		})); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, tls.NewListener(ln, srvTLS)) }()

	cl, err := DialTLS(context.Background(), ln.Addr().String(), clTLS, WithClientEngine(eng))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Register("add", prog); err != nil {
		t.Fatal(err)
	}
	info, err := cl.Evaluate(context.Background(), "add", []uint32{41})
	if err != nil {
		t.Fatalf("mTLS identity lost through a TLS listener: %v", err)
	}
	if info.Outputs[0] != 42 {
		t.Fatalf("sum = %d, want 42", info.Outputs[0])
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("Serve returned %v on shutdown", err)
	}
}

// TestServerBearerTokenPlaintext: bearer-token policy stands alone on a
// plaintext connection — the wrong token is rejected, the right one runs,
// both over one conn (the follow-up authorized session the issue pins).
func TestServerBearerTokenPlaintext(t *testing.T) {
	prog := compileAdd(t)
	eng := NewEngine()
	srv := NewServer(eng)
	if err := srv.Register("add", prog, WithMaxCycles(10_000), WithGarblerInput([]uint32{5}), WithAuthToken("s3cret")); err != nil {
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
	var rej *RejectedError
	if _, err := cl.Evaluate(context.Background(), "add", []uint32{1}); !errors.As(err, &rej) {
		t.Fatalf("no token: got %v, want *RejectedError", err)
	}
	noToken := rej.Reason
	if _, err := cl.Evaluate(context.Background(), "add", []uint32{1}, WithAuthToken("nope")); !errors.As(err, &rej) {
		t.Fatalf("wrong token: got %v, want *RejectedError", err)
	}
	// Anti-enumeration: an unknown program and a failed token check must
	// read identically (modulo the proposed name), or unauthenticated
	// peers could probe which programs the server hosts.
	if err := cl.Register("ghost", prog); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Evaluate(context.Background(), "ghost", []uint32{1}); !errors.As(err, &rej) {
		t.Fatalf("unknown program: got %v, want *RejectedError", err)
	}
	if got := strings.ReplaceAll(rej.Reason, `"ghost"`, `"add"`); got != noToken {
		t.Errorf("unknown-program rejection %q is distinguishable from the failed-token rejection %q", rej.Reason, noToken)
	}
	info, err := cl.Evaluate(context.Background(), "add", []uint32{1}, WithAuthToken("s3cret"))
	if err != nil {
		t.Fatalf("right token after two rejections on the same conn: %v", err)
	}
	if info.Outputs[0] != 6 {
		t.Fatalf("sum = %d, want 6", info.Outputs[0])
	}
	cl.Close()
	shutdown()
	m := srv.Metrics()
	if m.SessionsServed != 1 || m.SessionsRejected != 3 {
		t.Fatalf("served/rejected = %d/%d, want 1/3", m.SessionsServed, m.SessionsRejected)
	}
	// The unknown-program probe has no per-program slot (unbounded-
	// cardinality names never enter the map); "add" saw the two token
	// failures.
	if p := m.Programs["add"]; p.Served != 1 || p.Rejected != 2 {
		t.Fatalf("program counters %+v, want served 1 rejected 2", p)
	}
	if _, ok := m.Programs["ghost"]; ok {
		t.Error("an unregistered probe name leaked into the per-program metrics")
	}
}

// TestServerMetricsExactness reuses the concurrency harness: N concurrent
// clients each run one valid and one rejected session; every counter must
// land exactly, and the HTTP endpoint must serve the same numbers.
func TestServerMetricsExactness(t *testing.T) {
	prog := compileAdd(t)
	eng := NewEngine()
	srv := NewServer(eng, WithMaxSessions(4))
	if err := srv.Register("add", prog, WithMaxCycles(10_000), WithCycleBatch(4), WithGarblerInput([]uint32{10})); err != nil {
		t.Fatal(err)
	}
	addr, shutdown := startServer(t, srv)

	const clients = 6
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
			// One over-budget rejection...
			var rej *RejectedError
			if _, err := cl.Evaluate(context.Background(), "add", []uint32{1}, WithMaxCycles(100_000)); !errors.As(err, &rej) {
				errs <- fmt.Errorf("client %d: over-budget proposal: %v", i, err)
				return
			}
			// ...then one served session on the same conn.
			info, err := cl.Evaluate(context.Background(), "add", []uint32{uint32(i)})
			if err != nil {
				errs <- fmt.Errorf("client %d: %w", i, err)
				return
			}
			if info.Outputs[0] != 10+uint32(i) {
				errs <- fmt.Errorf("client %d: sum = %d", i, info.Outputs[0])
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	shutdown()

	m := srv.Metrics()
	if m.SessionsServed != clients || m.SessionsRejected != clients {
		t.Fatalf("served/rejected = %d/%d, want %d/%d", m.SessionsServed, m.SessionsRejected, clients, clients)
	}
	if m.SessionsActive != 0 || m.ConnectionsActive != 0 {
		t.Fatalf("active sessions/conns = %d/%d after shutdown, want 0/0", m.SessionsActive, m.ConnectionsActive)
	}
	if m.ConnectionsAccepted != clients {
		t.Fatalf("connections accepted = %d, want %d", m.ConnectionsAccepted, clients)
	}
	if p := m.Programs["add"]; p.Served != clients || p.Rejected != clients {
		t.Fatalf("program counters %+v, want %d/%d", p, clients, clients)
	}
	if m.EngineBuilds != 1 {
		t.Fatalf("engine builds = %d, want 1", m.EngineBuilds)
	}
	if m.SessionsFailed != 0 || m.NegotiationFailures != 0 {
		t.Fatalf("failed/negotiation-failures = %d/%d, want 0/0", m.SessionsFailed, m.NegotiationFailures)
	}

	// The scrape endpoint serves the same exact numbers.
	rec := httptest.NewRecorder()
	srv.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		fmt.Sprintf("arm2gc_sessions_served_total %d", clients),
		fmt.Sprintf("arm2gc_sessions_rejected_total %d", clients),
		fmt.Sprintf(`arm2gc_program_sessions_served_total{program="add"} %d`, clients),
		"arm2gc_engine_builds_total 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics endpoint missing %q in:\n%s", want, body)
		}
	}
	recJSON := httptest.NewRecorder()
	srv.MetricsHandler().ServeHTTP(recJSON, httptest.NewRequest("GET", "/metrics?format=json", nil))
	if !strings.Contains(recJSON.Body.String(), fmt.Sprintf(`"sessions_served": %d`, clients)) {
		t.Errorf("JSON metrics missing the served count:\n%s", recJSON.Body.String())
	}
}

// TestServerVersionMismatchKeepsServing: a proposal in a version the
// server does not speak is rejected at the frame layer; the server counts
// it and keeps serving other clients.
func TestServerVersionMismatchKeepsServing(t *testing.T) {
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
	// A hand-crafted proposal frame with flag 0x80 and no other version
	// bit, a mix no build writes: type, length, name, flags, mode, batch,
	// cycles, workers.
	frame := []byte{
		0x10, 21, 0, 0, 0,
		1, 0, 'p',
		0x80, 0,
		0, 0, 0, 0,
		0, 0, 0, 0, 0, 0, 0, 0,
		0, 0, 0, 0,
	}
	if _, err := raw.Write(frame); err != nil {
		t.Fatal(err)
	}
	// The server must answer with a rejection, not close the conn: a
	// follow-up supported proposal on the same conn gets the pending
	// rejection first (Negotiate reads responses in order).
	_, err = proto.Negotiate(context.Background(), raw, proto.Proposal{Program: "add"})
	var rej *proto.Rejected
	if !errors.As(err, &rej) {
		t.Fatalf("got %v, want the version rejection", err)
	}
	if !strings.Contains(rej.Reason, "older protocol version") {
		t.Errorf("rejection reason %q does not mention the version mismatch", rej.Reason)
	}
	raw.Close()

	// The server survives and still serves healthy clients.
	cl, err := Dial(context.Background(), addr, WithClientEngine(eng))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Register("add", prog); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Evaluate(context.Background(), "add", []uint32{2}); err != nil {
		t.Fatalf("healthy client after a version-mismatch conn: %v", err)
	}
	if got := srv.Metrics().NegotiationFailures; got != 1 {
		t.Fatalf("negotiation failures = %d, want 1", got)
	}
}
