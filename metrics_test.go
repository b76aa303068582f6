package arm2gc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"arm2gc/internal/proto"
)

// shortErrConn returns bytes alongside an error — the partial-transfer
// shape net.Conn permits and TCP produces when a peer dies mid-read.
type shortErrConn struct{ net.Conn }

func (shortErrConn) Read(p []byte) (int, error)  { return 3, io.ErrUnexpectedEOF }
func (shortErrConn) Write(p []byte) (int, error) { return 5, io.ErrClosedPipe }

// TestCountedConnCountsBytesWithError pins partial-transfer accounting:
// a Read or Write that moves n > 0 bytes and then fails must still count
// those n bytes — they crossed the wire.
func TestCountedConnCountsBytesWithError(t *testing.T) {
	m := &serverMetrics{programs: make(map[string]*programCounters)}
	c := &countedConn{Conn: shortErrConn{}, m: m}

	n, err := c.Read(make([]byte, 8))
	if n != 3 || !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("Read = (%d, %v), want (3, unexpected EOF)", n, err)
	}
	n, err = c.Write(make([]byte, 8))
	if n != 5 || !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("Write = (%d, %v), want (5, closed pipe)", n, err)
	}
	if got := m.bytesRead.Load(); got != 3 {
		t.Errorf("bytesRead = %d, want 3: bytes delivered before the error were dropped", got)
	}
	if got := m.bytesWritten.Load(); got != 5 {
		t.Errorf("bytesWritten = %d, want 5: bytes sent before the error were dropped", got)
	}
}

// waitActiveZero polls until the active-session gauge settles at zero;
// serveOne decrements it on its way out, which can race the client
// observing its own end of the session.
func waitActiveZero(t *testing.T, srv *Server) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if srv.Metrics().SessionsActive == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("SessionsActive stuck at %d", srv.Metrics().SessionsActive)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServerActiveGaugeStageFailures fails sessions at every stage of
// serveOne — admission, negotiation, mid-protocol — and checks the
// active-session gauge returns to zero each time, counts exactly the
// garbling window on success, and the failure lands in the right
// counter.
func TestServerActiveGaugeStageFailures(t *testing.T) {
	prog := compileAdd(t)
	eng := NewEngine()
	srv := NewServer(eng)
	var activeDuring atomic.Int64
	if err := srv.Register("add", prog,
		WithMaxCycles(10_000),
		WithGarblerInput([]uint32{1}),
		WithStatsSink(func(CycleUpdate) {
			// Runs inside the server's garbling loop: the gauge must
			// show this session.
			if a := srv.Metrics().SessionsActive; a > activeDuring.Load() {
				activeDuring.Store(a)
			}
		})); err != nil {
		t.Fatal(err)
	}
	if err := srv.Register("locked", prog,
		WithMaxCycles(10_000), WithAuthToken("secret"), WithGarblerInput([]uint32{1})); err != nil {
		t.Fatal(err)
	}
	addr, shutdown := startServer(t, srv)
	defer shutdown()

	cl, err := Dial(context.Background(), addr, WithClientEngine(eng))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for _, name := range []string{"add", "locked", "ghost"} {
		if err := cl.Register(name, prog); err != nil {
			t.Fatal(err)
		}
	}

	// Stage 1: admission failures — unknown program, then a bad bearer
	// token. Both are rejections; the gauge never rises.
	var rej *RejectedError
	if _, err := cl.Evaluate(context.Background(), "ghost", []uint32{2}); !errors.As(err, &rej) {
		t.Fatalf("unknown program: got %v, want *RejectedError", err)
	}
	if _, err := cl.Evaluate(context.Background(), "locked", []uint32{2},
		WithAuthToken("wrong")); !errors.As(err, &rej) {
		t.Fatalf("bad token: got %v, want *RejectedError", err)
	}
	m := srv.Metrics()
	if m.SessionsRejected != 2 || m.SessionsActive != 0 || m.SessionsFailed != 0 {
		t.Fatalf("after admission failures: %+v", m)
	}

	// Stage 2: negotiation failure — an over-budget proposal.
	if _, err := cl.Evaluate(context.Background(), "add", []uint32{2},
		WithMaxCycles(100_000)); !errors.As(err, &rej) {
		t.Fatalf("over budget: got %v, want *RejectedError", err)
	}
	if m = srv.Metrics(); m.SessionsRejected != 3 || m.SessionsActive != 0 {
		t.Fatalf("after negotiation failure: %+v", m)
	}

	// Stage 3: mid-protocol death — win the grant, then hang up while
	// the server is garbling. The gauge must come back down and the
	// failure must land in SessionsFailed, not SessionsRejected.
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := proto.Negotiate(context.Background(), raw, proto.Proposal{Program: "add"}); err != nil {
		t.Fatal(err)
	}
	raw.Close()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Metrics().SessionsFailed == 0 {
		if time.Now().After(deadline) {
			t.Fatal("mid-protocol disconnect never counted as a failed session")
		}
		time.Sleep(time.Millisecond)
	}
	waitActiveZero(t, srv)

	// Stage 4: success — the gauge shows the session while it garbles
	// and is back to zero after.
	info, err := cl.Evaluate(context.Background(), "add", []uint32{2})
	if err != nil {
		t.Fatal(err)
	}
	if info.Outputs[0] != 3 {
		t.Fatalf("sum = %d, want 3", info.Outputs[0])
	}
	waitActiveZero(t, srv)
	if got := activeDuring.Load(); got != 1 {
		t.Fatalf("gauge read %d during garbling, want 1", got)
	}
	if m = srv.Metrics(); m.SessionsServed != 1 || m.SessionsFailed != 1 || m.SessionsRejected != 3 {
		t.Fatalf("final counters: %+v", m)
	}
}

// TestServerMetricsHandlerNegotiatesFormat pins the scrape endpoint's
// content negotiation: one snapshot renders as Prometheus text by
// default and as JSON with ?format=json, and the two views report the
// same numbers.
func TestServerMetricsHandlerNegotiatesFormat(t *testing.T) {
	prog := compileAdd(t)
	eng := NewEngine()
	srv := NewServer(eng)
	if err := srv.Register("add", prog,
		WithMaxCycles(10_000),
		WithGarblerInput([]uint32{100}),
		WithAuthToken("secret")); err != nil {
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
	// One rejected session (wrong token) and one served, so both
	// per-program counters are non-zero in the scrape.
	var rej *RejectedError
	if _, err := cl.Evaluate(context.Background(), "add", []uint32{1},
		WithAuthToken("wrong")); !errors.As(err, &rej) {
		t.Fatalf("got %v, want a rejection", err)
	}
	if _, err := cl.Evaluate(context.Background(), "add", []uint32{1},
		WithAuthToken("secret")); err != nil {
		t.Fatal(err)
	}
	// The session's tail (the outputs frame) is still in flight when
	// Evaluate returns; wait for the server to account it.
	for deadline := time.Now().Add(10 * time.Second); srv.Metrics().SessionsServed < 1; {
		if time.Now().After(deadline) {
			t.Fatal("session never accounted")
		}
		time.Sleep(time.Millisecond)
	}

	h := srv.MetricsHandler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("default Content-Type = %q, want the Prometheus text format", ct)
	}
	text := rec.Body.String()
	for _, want := range []string{
		"arm2gc_sessions_served_total 1",
		"arm2gc_sessions_rejected_total 1",
		`arm2gc_program_sessions_served_total{program="add"} 1`,
		`arm2gc_program_sessions_rejected_total{program="add"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("text scrape missing %q:\n%s", want, text)
		}
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics?format=json", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("?format=json Content-Type = %q", ct)
	}
	var m ServerMetrics
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatalf("JSON scrape does not parse: %v", err)
	}
	if m.SessionsServed != 1 || m.SessionsRejected != 1 {
		t.Fatalf("JSON view served=%d rejected=%d, want 1/1", m.SessionsServed, m.SessionsRejected)
	}
	if p := m.Programs["add"]; p.Served != 1 || p.Rejected != 1 {
		t.Fatalf("JSON per-program view %+v, want served 1 rejected 1", p)
	}
}

// TestServerTraceCacheMetrics pins the trace-cache counters an operator
// reads the hit rate from: three sequential sessions against a server
// whose Engine no client shares record once and replay twice, and the
// text scrape and the JSON view both report exactly that.
func TestServerTraceCacheMetrics(t *testing.T) {
	prog := compileAdd(t)
	eng := NewEngine()
	srv := NewServer(eng)
	if err := srv.Register("add", prog, WithMaxCycles(10_000), WithGarblerInput([]uint32{100})); err != nil {
		t.Fatal(err)
	}
	addr, shutdown := startServer(t, srv)
	cl, err := Dial(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Register("add", prog); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := cl.Evaluate(context.Background(), "add", []uint32{uint32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	cl.Close()
	shutdown() // joins the handlers, so every session has settled its trace

	bytes := eng.traces.Bytes()
	if bytes <= 0 {
		t.Fatalf("trace cache holds %d bytes after a recorded session", bytes)
	}
	rec := httptest.NewRecorder()
	srv.MetricsHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	text := rec.Body.String()
	for _, want := range []string{
		"arm2gc_trace_recordings_total 1",
		"arm2gc_trace_replays_total 2",
		"arm2gc_trace_evictions_total 0",
		"arm2gc_trace_uncacheable_total 0",
		fmt.Sprintf("arm2gc_trace_cache_bytes %d", bytes),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("text scrape missing %q:\n%s", want, text)
		}
	}

	rec = httptest.NewRecorder()
	srv.MetricsHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics?format=json", nil))
	var m ServerMetrics
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatalf("JSON scrape does not parse: %v", err)
	}
	got := [...]int64{m.TraceRecordings, m.TraceReplays, m.TraceEvictions, m.TraceUncacheable, m.TraceCacheBytes}
	if want := [...]int64{1, 2, 0, 0, bytes}; got != want {
		t.Fatalf("JSON trace counters (recordings, replays, evictions, uncacheable, bytes) %v, want %v", got, want)
	}
}

// TestServerMetricsSurviveFailedNegotiation: a frame-layer negotiation
// failure (unassigned feature flag) is counted without disturbing the
// per-program counters, and both scrape formats keep rendering.
func TestServerMetricsSurviveFailedNegotiation(t *testing.T) {
	prog := compileAdd(t)
	eng := NewEngine()
	srv := NewServer(eng)
	if err := srv.Register("add", prog,
		WithMaxCycles(10_000),
		WithGarblerInput([]uint32{100})); err != nil {
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
	for deadline := time.Now().Add(10 * time.Second); srv.Metrics().SessionsServed < 1; {
		if time.Now().After(deadline) {
			t.Fatal("session never accounted")
		}
		time.Sleep(time.Millisecond)
	}

	// A hand-crafted proposal announcing flag 0x80, which no build
	// implements — the same shape as the version-mismatch serving test.
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
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
	var protoRej *proto.Rejected
	if _, err := proto.Negotiate(context.Background(), raw, proto.Proposal{Program: "add"}); !errors.As(err, &protoRej) {
		t.Fatalf("got %v, want the version rejection", err)
	}

	m := srv.Metrics()
	if m.NegotiationFailures != 1 {
		t.Fatalf("negotiation failures = %d, want 1", m.NegotiationFailures)
	}
	if p := m.Programs["add"]; p.Served != 1 || p.Rejected != 0 {
		t.Fatalf("per-program counters disturbed by a failed negotiation: %+v", p)
	}
	rec := httptest.NewRecorder()
	srv.MetricsHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if want := "arm2gc_negotiation_failures_total 1"; !strings.Contains(rec.Body.String(), want) {
		t.Fatalf("text scrape missing %q after a failed negotiation", want)
	}
	rec = httptest.NewRecorder()
	srv.MetricsHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics?format=json", nil))
	var js ServerMetrics
	if err := json.Unmarshal(rec.Body.Bytes(), &js); err != nil {
		t.Fatalf("JSON scrape after a failed negotiation: %v", err)
	}
	if js.Programs["add"].Served != 1 {
		t.Fatalf("JSON per-program view lost the served count: %+v", js.Programs)
	}
}
