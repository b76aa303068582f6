package gateway

import (
	"bytes"
	"context"
	"crypto/tls"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"arm2gc"
	"arm2gc/internal/devcert"
	"arm2gc/internal/proto"
	"arm2gc/internal/wire"
)

// The integration tests run a real fleet: backend arm2gc.Servers on
// loopback listeners, a Gateway in front, and arm2gc.Clients dialing the
// gateway — every byte of every session crosses two TCP hops and the
// frame-aware relay.

const addSrc = `
void gc_main(const int *a, const int *b, int *c) {
	c[0] = a[0] + b[0];
	c[1] = a[0] > b[0] ? a[0] : b[0];
}
`

// slowSrc loops enough to keep a session garbling for a while — the
// window the chaos test kills a backend in.
const slowSrc = `
void gc_main(const int *a, const int *b, int *c) {
	unsigned acc = 0;
	for (int i = 0; i < 64; i = i + 1) {
		acc = acc + ((a[0] ^ i) * (b[0] + i));
	}
	c[0] = acc;
	c[1] = 0;
}
`

func testLayout() arm2gc.Layout {
	return arm2gc.Layout{IMemWords: 64, AliceWords: 1, BobWords: 1, OutWords: 2, ScratchWords: 16}
}

func compileProg(t testing.TB, name, src string) *arm2gc.Program {
	t.Helper()
	prog, warnings, err := arm2gc.CompileC(name, src, testLayout())
	if err != nil {
		t.Fatal(err)
	}
	if len(warnings) != 0 {
		t.Fatalf("unexpected warnings: %v", warnings)
	}
	return prog
}

// testBackend is one fleet member under test control.
type testBackend struct {
	addr string
	srv  *arm2gc.Server
	eng  *arm2gc.Engine
	stop func()
}

// startBackend serves a Server on a fresh loopback listener (or on addr
// when non-empty, for the chaos test's restart). Drain is zero so a
// cancelled backend kills its sessions immediately.
func startBackend(t *testing.T, eng *arm2gc.Engine, addr string, register func(*arm2gc.Server) error, opts ...arm2gc.ServerOption) *testBackend {
	t.Helper()
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	srv := arm2gc.NewServer(eng, append([]arm2gc.ServerOption{arm2gc.WithDrainTimeout(0)}, opts...)...)
	if err := register(srv); err != nil {
		ln.Close()
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); srv.Serve(ctx, ln) }()
	b := &testBackend{addr: ln.Addr().String(), srv: srv, eng: eng}
	b.stop = func() {
		cancel()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Error("backend Serve did not return")
		}
	}
	return b
}

// startGateway serves a Gateway on a fresh loopback listener.
func startGateway(t *testing.T, cfg Config) (string, *Gateway, func()) {
	t.Helper()
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 50 * time.Millisecond
	}
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- g.Serve(ctx, ln) }()
	return ln.Addr().String(), g, func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("gateway Serve returned %v on shutdown, want nil", err)
			}
		case <-time.After(10 * time.Second):
			t.Error("gateway Serve did not return after shutdown")
		}
	}
}

// waitFor polls cond: the gateway adds a relay hop, so a backend's
// counters settle a moment after the client's Evaluate returns (the
// terminal outputs frame is still crossing when the client comes back).
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func registerAdd(prog *arm2gc.Program) func(*arm2gc.Server) error {
	return func(s *arm2gc.Server) error {
		return s.Register("add", prog,
			arm2gc.WithMaxCycles(10_000),
			arm2gc.WithGarblerInput([]uint32{100}))
	}
}

// TestGatewayEndToEnd: sessions relayed through the gateway compute the
// right answer, a connection carries many sequential sessions, backend
// rejections relay transparently without costing the connection, and the
// counters add up.
func TestGatewayEndToEnd(t *testing.T) {
	prog := compileProg(t, "add", addSrc)
	eng := arm2gc.NewEngine()
	b1 := startBackend(t, eng, "", registerAdd(prog))
	defer b1.stop()
	b2 := startBackend(t, eng, "", registerAdd(prog))
	defer b2.stop()
	addr, g, stop := startGateway(t, Config{Backends: []string{b1.addr, b2.addr}})
	defer stop()

	cl, err := arm2gc.Dial(context.Background(), addr, arm2gc.WithClientEngine(eng))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Register("add", prog); err != nil {
		t.Fatal(err)
	}
	const sessions = 3
	for i := 0; i < sessions; i++ {
		info, err := cl.Evaluate(context.Background(), "add", []uint32{uint32(i)})
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		if info.Outputs[0] != 100+uint32(i) {
			t.Fatalf("session %d: sum = %d, want %d", i, info.Outputs[0], 100+i)
		}
	}

	// An unknown program is rejected by the backend; the relay forwards
	// the verdict and the connection keeps serving.
	if err := cl.Register("ghost", compileProg(t, "ghost", addSrc)); err != nil {
		t.Fatal(err)
	}
	var rej *arm2gc.RejectedError
	if _, err := cl.Evaluate(context.Background(), "ghost", []uint32{1}); !errors.As(err, &rej) {
		t.Fatalf("unknown program: got %v, want *RejectedError", err)
	}
	if info, err := cl.Evaluate(context.Background(), "add", []uint32{7}); err != nil || info.Outputs[0] != 107 {
		t.Fatalf("post-rejection session: %v, %v", info, err)
	}

	// Each Register also proposed an OT set-up, routed like a session;
	// the backend declined ghost's.
	const proposals = sessions + 2 + 2
	m := g.Metrics()
	if m.Proposals != proposals {
		t.Errorf("proposals = %d, want %d", m.Proposals, proposals)
	}
	var routed int64
	for _, b := range m.Backends {
		routed += b.Routed
		if b.Failed != 0 {
			t.Errorf("backend %s failed = %d, want 0", b.Addr, b.Failed)
		}
	}
	if routed != proposals {
		t.Errorf("routed = %d, want %d", routed, proposals)
	}
	waitFor(t, "fleet served count", func() bool {
		return b1.srv.SessionsServed()+b2.srv.SessionsServed() == sessions+1
	})
}

// TestGatewaySharding: M sessions for one program all pin to one backend
// under consistent hashing, so exactly one classification trace is
// recorded across the fleet.
func TestGatewaySharding(t *testing.T) {
	const sessions = 4
	t.Run("affinity pins one backend", func(t *testing.T) {
		prog := compileProg(t, "add", addSrc)
		engA, engB := arm2gc.NewEngine(), arm2gc.NewEngine()
		bA := startBackend(t, engA, "", registerAdd(prog))
		defer bA.stop()
		bB := startBackend(t, engB, "", registerAdd(prog))
		defer bB.stop()
		addr, _, stop := startGateway(t, Config{Backends: []string{bA.addr, bB.addr}})
		defer stop()

		cl, err := arm2gc.Dial(context.Background(), addr, arm2gc.WithClientEngine(arm2gc.NewEngine()))
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		if err := cl.Register("add", prog); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < sessions; i++ {
			info, err := cl.Evaluate(context.Background(), "add", []uint32{uint32(i)})
			if err != nil {
				t.Fatalf("session %d: %v", i, err)
			}
			if info.Outputs[0] != 100+uint32(i) {
				t.Fatalf("session %d: sum = %d, want %d", i, info.Outputs[0], 100+i)
			}
		}
		waitFor(t, "fleet served count", func() bool {
			return bA.srv.SessionsServed()+bB.srv.SessionsServed() == sessions
		})
		if rec := engA.TraceRecordings() + engB.TraceRecordings(); rec != 1 {
			t.Errorf("fleet recorded %d classification traces, want exactly 1", rec)
		}
		servedA, servedB := bA.srv.SessionsServed(), bB.srv.SessionsServed()
		if (servedA != sessions || servedB != 0) && (servedA != 0 || servedB != sessions) {
			t.Errorf("served split %d/%d, want all %d on one backend", servedA, servedB, sessions)
		}
	})
}

// TestGatewayOutputModes drives all three output modes through the relay
// on one connection: every session ends on the backend's decode frame and
// the client's outputs frame, one of them empty in the one-sided modes.
func TestGatewayOutputModes(t *testing.T) {
	progE := compileProg(t, "evalonly", addSrc)
	progG := compileProg(t, "garbonly", addSrc)
	progB := compileProg(t, "both", addSrc)
	eng := arm2gc.NewEngine()
	b := startBackend(t, eng, "", func(s *arm2gc.Server) error {
		if err := s.Register("evalonly", progE,
			arm2gc.WithMaxCycles(10_000),
			arm2gc.WithGarblerInput([]uint32{10}),
			arm2gc.WithOutputMode(arm2gc.OutputEvaluatorOnly)); err != nil {
			return err
		}
		if err := s.Register("garbonly", progG,
			arm2gc.WithMaxCycles(10_000),
			arm2gc.WithGarblerInput([]uint32{20}),
			arm2gc.WithOutputMode(arm2gc.OutputGarblerOnly)); err != nil {
			return err
		}
		return s.Register("both", progB,
			arm2gc.WithMaxCycles(10_000),
			arm2gc.WithGarblerInput([]uint32{30}))
	})
	defer b.stop()
	addr, _, stop := startGateway(t, Config{Backends: []string{b.addr}})
	defer stop()

	cl, err := arm2gc.Dial(context.Background(), addr, arm2gc.WithClientEngine(eng))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for _, reg := range []struct {
		name string
		prog *arm2gc.Program
	}{{"evalonly", progE}, {"garbonly", progG}, {"both", progB}} {
		if err := cl.Register(reg.name, reg.prog); err != nil {
			t.Fatal(err)
		}
	}

	// Two passes so every mode transition occurs mid-connection at least
	// once.
	for pass := 0; pass < 2; pass++ {
		info, err := cl.Evaluate(context.Background(), "evalonly", []uint32{2},
			arm2gc.WithOutputMode(arm2gc.OutputEvaluatorOnly))
		if err != nil {
			t.Fatalf("pass %d evalonly: %v", pass, err)
		}
		if info.Outputs[0] != 12 {
			t.Fatalf("pass %d evalonly: sum = %d, want 12", pass, info.Outputs[0])
		}
		info, err = cl.Evaluate(context.Background(), "garbonly", []uint32{3},
			arm2gc.WithOutputMode(arm2gc.OutputGarblerOnly))
		if err != nil {
			t.Fatalf("pass %d garbonly: %v", pass, err)
		}
		if len(info.Outputs) != 0 {
			t.Fatalf("pass %d garbonly: evaluator learned outputs %v", pass, info.Outputs)
		}
		info, err = cl.Evaluate(context.Background(), "both", []uint32{4})
		if err != nil {
			t.Fatalf("pass %d both: %v", pass, err)
		}
		if info.Outputs[0] != 34 {
			t.Fatalf("pass %d both: sum = %d, want 34", pass, info.Outputs[0])
		}
	}
}

// TestGatewayShedRateLimit: past the per-peer burst the gateway sheds
// with a Retry-After hint, the client surfaces it as *RetryableError,
// and the connection stays usable. The OT set-up Register proposes is
// charged like a session: it costs the backend the base OTs.
func TestGatewayShedRateLimit(t *testing.T) {
	prog := compileProg(t, "add", addSrc)
	eng := arm2gc.NewEngine()
	b := startBackend(t, eng, "", registerAdd(prog))
	defer b.stop()
	addr, g, stop := startGateway(t, Config{
		Backends:     []string{b.addr},
		RatePerPeer:  0.01, // no meaningful refill within the test
		BurstPerPeer: 3,    // the set-up and two sessions
	})
	defer stop()

	cl, err := arm2gc.Dial(context.Background(), addr, arm2gc.WithClientEngine(eng))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Register("add", prog); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := cl.Evaluate(context.Background(), "add", []uint32{1}); err != nil {
			t.Fatalf("burst session %d: %v", i, err)
		}
	}
	var retry *arm2gc.RetryableError
	_, err = cl.Evaluate(context.Background(), "add", []uint32{1})
	if !errors.As(err, &retry) {
		t.Fatalf("shed session: got %v, want *RetryableError", err)
	}
	if retry.After <= 0 {
		t.Errorf("shed Retry-After = %v, want positive", retry.After)
	}
	// The shed kept the connection: the next attempt reaches the gateway
	// again (and is shed again — the bucket is still dry).
	if _, err = cl.Evaluate(context.Background(), "add", []uint32{1}); !errors.As(err, &retry) {
		t.Fatalf("post-shed session: got %v, want *RetryableError", err)
	}
	if m := g.Metrics(); m.ShedRateLimit != 2 {
		t.Errorf("shed counter = %d, want 2", m.ShedRateLimit)
	}
}

// TestGatewayChaosKillBackend is the chaos drill: kill the backend
// serving a program mid-session. The in-flight session fails cleanly,
// the gateway ejects the corpse, later sessions succeed on the survivor,
// and once the backend comes back the prober re-admits it.
func TestGatewayChaosKillBackend(t *testing.T) {
	prog := compileProg(t, "slow", slowSrc)
	// The kill lands inside the session by construction, not by racing
	// it: once armed, the registration's stats sink parks the garbler in
	// its cycle loop, mid-session, until the victim is dead.
	var armed atomic.Bool
	parked := make(chan struct{}, 1)
	release := make(chan struct{})
	park := func(arm2gc.CycleUpdate) {
		if armed.CompareAndSwap(true, false) {
			parked <- struct{}{}
			<-release
		}
	}
	register := func(s *arm2gc.Server) error {
		return s.Register("slow", prog,
			arm2gc.WithMaxCycles(10_000),
			arm2gc.WithGarblerInput([]uint32{5}),
			arm2gc.WithStatsSink(park))
	}
	engA, engB := arm2gc.NewEngine(), arm2gc.NewEngine()
	bA := startBackend(t, engA, "", register)
	defer bA.stop()
	bB := startBackend(t, engB, "", register)
	defer bB.stop()
	addr, g, stop := startGateway(t, Config{Backends: []string{bA.addr, bB.addr}})
	defer stop()
	clientEng := arm2gc.NewEngine()

	dial := func() *arm2gc.Client {
		t.Helper()
		cl, err := arm2gc.Dial(context.Background(), addr, arm2gc.WithClientEngine(clientEng))
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Register("slow", prog); err != nil {
			t.Fatal(err)
		}
		return cl
	}

	// Warm-up session finds which backend owns "slow" on the ring.
	cl := dial()
	if _, err := cl.Evaluate(context.Background(), "slow", []uint32{3}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "warm-up session to count", func() bool {
		return bA.srv.SessionsServed()+bB.srv.SessionsServed() == 1
	})
	victim, survivor := bA, bB
	if bB.srv.SessionsServed() > 0 {
		victim, survivor = bB, bA
	}

	// Kill the victim mid-session: wait until the next session is parked
	// garbling there, then cancel its Serve (drain 0 closes its
	// connections immediately). The client sees the session die; only
	// then is the parked garbler let go, to find its session cancelled.
	evalErr := make(chan error, 1)
	armed.Store(true)
	go func() {
		_, err := cl.Evaluate(context.Background(), "slow", []uint32{4})
		evalErr <- err
	}()
	select {
	case <-parked:
	case <-time.After(10 * time.Second):
		t.Fatal("session never went active on the victim")
	}
	if victim.srv.Metrics().SessionsActive != 1 {
		t.Fatal("the parked session is not active on the victim")
	}
	stopped := make(chan struct{})
	go func() {
		victim.stop()
		close(stopped)
	}()
	select {
	case err := <-evalErr:
		if err == nil {
			t.Fatal("mid-session kill: Evaluate succeeded, want an error")
		}
		t.Logf("in-flight session failed with: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight session hung after backend kill")
	}
	close(release)
	<-stopped
	cl.Close()

	// The gateway has ejected the victim; a fresh client's sessions
	// spill to the survivor.
	cl2 := dial()
	if _, err := cl2.Evaluate(context.Background(), "slow", []uint32{6}); err != nil {
		t.Fatalf("post-kill session on survivor: %v", err)
	}
	cl2.Close()
	waitFor(t, "survivor to serve", func() bool { return survivor.srv.SessionsServed() > 0 })
	m := g.Metrics()
	if m.Ejections == 0 {
		t.Error("no ejection counted after backend death")
	}
	var victimFailed int64
	for _, b := range m.Backends {
		if b.Addr == victim.addr {
			victimFailed = b.Failed
		}
	}
	if victimFailed == 0 {
		t.Error("victim's failed counter is zero")
	}

	// Resurrect the victim on its old address; the prober re-admits it
	// and the program's sessions come home to the ring node.
	reborn := startBackend(t, victim.eng, victim.addr, register)
	defer reborn.stop()
	deadline := time.Now().Add(10 * time.Second)
	for {
		healthy := false
		for _, b := range g.Backends() {
			if b.Addr == victim.addr && b.Healthy {
				healthy = true
			}
		}
		if healthy {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("backend never re-admitted after restart")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if g.Metrics().Readmissions == 0 {
		t.Error("no re-admission counted")
	}
	cl3 := dial()
	defer cl3.Close()
	if _, err := cl3.Evaluate(context.Background(), "slow", []uint32{7}); err != nil {
		t.Fatalf("session after re-admission: %v", err)
	}
	waitFor(t, "affinity to come home", func() bool { return reborn.srv.SessionsServed() == 1 })
}

// TestGatewayClientFaultKeepsBackend: a client that breaks its session
// after the grant — by hanging up, or by sending a frame its direction
// never carries — costs its own connection and nothing else. The backend
// is not ejected and counts no failed session, and the next client's
// session is served with no probe to re-admit anything.
func TestGatewayClientFaultKeepsBackend(t *testing.T) {
	prog := compileProg(t, "add", addSrc)
	eng := arm2gc.NewEngine()
	b := startBackend(t, eng, "", registerAdd(prog))
	defer b.stop()
	addr, g, stop := startGateway(t, Config{Backends: []string{b.addr}, ProbeInterval: time.Hour})
	defer stop()

	for i, fault := range []struct {
		name  string
		after func(net.Conn) error // what the client does after its grant
	}{
		{"hang-up", func(net.Conn) error { return nil }},
		{"tables from the client", func(nc net.Conn) error {
			if err := wire.Write(nc, wire.Tables, make([]byte, 32)); err != nil {
				return err
			}
			// The gateway ends the connection: EOF, or a reset.
			_ = nc.SetReadDeadline(time.Now().Add(10 * time.Second))
			_, err := io.Copy(io.Discard, nc)
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				return err
			}
			return nil
		}},
	} {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := proto.Negotiate(context.Background(), nc, proto.Proposal{Program: "add"}); err != nil {
			t.Fatalf("%s: %v", fault.name, err)
		}
		if err := fault.after(nc); err != nil {
			t.Fatalf("%s: %v", fault.name, err)
		}
		nc.Close()
		waitFor(t, fault.name+" to count", func() bool { return g.Metrics().ClientFaults == int64(i+1) })
	}

	m := g.Metrics()
	if m.Ejections != 0 {
		t.Errorf("ejections = %d after client faults, want 0", m.Ejections)
	}
	for _, bs := range m.Backends {
		if !bs.Healthy || bs.Failed != 0 {
			t.Errorf("backend %s: healthy %v, failed %d after client faults, want healthy, 0", bs.Addr, bs.Healthy, bs.Failed)
		}
	}
	cl, err := arm2gc.Dial(context.Background(), addr, arm2gc.WithClientEngine(eng))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Register("add", prog); err != nil {
		t.Fatalf("next client's set-up: %v", err)
	}
	if info, err := cl.Evaluate(context.Background(), "add", []uint32{5}); err != nil || info.Outputs[0] != 105 {
		t.Fatalf("next client's session: %v, %v", info, err)
	}
}

// TestGatewayIdleConnOneGoroutine: a client connection idle between
// sessions, after sessions on links to two backends, is served by exactly
// one gateway goroutine — nothing per link outlives its session.
func TestGatewayIdleConnOneGoroutine(t *testing.T) {
	prog := compileProg(t, "add", addSrc)
	eng := arm2gc.NewEngine()
	b1 := startBackend(t, eng, "", func(*arm2gc.Server) error { return nil })
	defer b1.stop()
	b2 := startBackend(t, eng, "", func(*arm2gc.Server) error { return nil })
	defer b2.stop()
	addr, g, stop := startGateway(t, Config{Backends: []string{b1.addr, b2.addr}})
	defer stop()

	// One program name homed on each backend.
	homes := make(map[string]string) // backend → program
	for i := 0; len(homes) < 2; i++ {
		if i == 1000 {
			t.Fatal("no program name homes on the second backend")
		}
		name := fmt.Sprintf("add%d", i)
		if home := g.route(name, nil).addr; homes[home] == "" {
			homes[home] = name
		}
	}
	cl, err := arm2gc.Dial(context.Background(), addr, arm2gc.WithClientEngine(eng))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for _, b := range []*testBackend{b1, b2} {
		name := homes[b.addr]
		if err := b.srv.Register(name, prog, arm2gc.WithMaxCycles(10_000), arm2gc.WithGarblerInput([]uint32{100})); err != nil {
			t.Fatal(err)
		}
		if err := cl.Register(name, prog); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Evaluate(context.Background(), name, []uint32{1}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "a session on each backend", func() bool {
		return b1.srv.SessionsServed() == 1 && b2.srv.SessionsServed() == 1
	})

	deadline := time.Now().Add(5 * time.Second)
	for n := connGoroutines(); n != 1; n = connGoroutines() {
		if time.Now().After(deadline) {
			t.Fatalf("%d gateway goroutines serve one idle connection, want 1", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// connGoroutines counts the goroutines serving gateway client
// connections: those running handle, or a method of proxyConn or
// backendLink.
func connGoroutines() int {
	buf := make([]byte, 1<<16)
	for {
		if n := runtime.Stack(buf, true); n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	count := 0
	for _, stack := range strings.Split(string(buf), "\n\n") {
		for _, fn := range []string{"gateway.(*Gateway).handle(", "gateway.(*proxyConn).", "gateway.(*backendLink)."} {
			if strings.Contains(stack, "arm2gc/internal/"+fn) {
				count++
				break
			}
		}
	}
	return count
}

// TestGatewayAdminOps: the authenticated admin endpoint retires and
// re-registers programs and resizes the fleet live; bad or missing
// credentials are refused in constant time.
func TestGatewayAdminOps(t *testing.T) {
	prog := compileProg(t, "add", addSrc)
	eng := arm2gc.NewEngine()
	b := startBackend(t, eng, "", registerAdd(prog))
	defer b.stop()
	addr, g, stop := startGateway(t, Config{Backends: []string{b.addr}})
	defer stop()

	const token = "sesame"
	admin := httptest.NewServer(g.AdminHandler(token))
	defer admin.Close()
	post := func(path string, wantCode int) string {
		t.Helper()
		req, _ := http.NewRequest("POST", admin.URL+path, nil)
		req.Header.Set("Authorization", "Bearer "+token)
		resp, err := admin.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != wantCode {
			t.Fatalf("POST %s = %d (%s), want %d", path, resp.StatusCode, body, wantCode)
		}
		return string(body)
	}

	// Unauthenticated and wrongly-authenticated requests fail closed.
	for _, auth := range []string{"", "Bearer wrong", "Basic sesame"} {
		req, _ := http.NewRequest("GET", admin.URL+"/backends", nil)
		if auth != "" {
			req.Header.Set("Authorization", auth)
		}
		resp, err := admin.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusForbidden {
			t.Fatalf("auth %q: status %d, want 403", auth, resp.StatusCode)
		}
	}
	// An empty configured token disables the endpoint even with an
	// empty bearer.
	disabled := httptest.NewServer(g.AdminHandler(""))
	defer disabled.Close()
	req, _ := http.NewRequest("GET", disabled.URL+"/backends", nil)
	req.Header.Set("Authorization", "Bearer ")
	if resp, err := disabled.Client().Do(req); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusForbidden {
			t.Fatalf("disabled admin: status %d, want 403", resp.StatusCode)
		}
	}

	cl, err := arm2gc.Dial(context.Background(), addr, arm2gc.WithClientEngine(eng))
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

	// Retire the program live: the next proposal dies at the gateway
	// with a plain rejection, the connection survives.
	post("/programs?op=retire&name=add", http.StatusOK)
	var rej *arm2gc.RejectedError
	if _, err := cl.Evaluate(context.Background(), "add", []uint32{1}); !errors.As(err, &rej) {
		t.Fatalf("retired program: got %v, want *RejectedError", err)
	}
	// The gateway words it exactly as a backend words a program it does
	// not host, so the two cannot be told apart.
	bare := startBackend(t, eng, "", func(*arm2gc.Server) error { return nil })
	defer bare.stop()
	nc, err := net.Dial("tcp", bare.addr)
	if err != nil {
		t.Fatal(err)
	}
	_, err = proto.Negotiate(context.Background(), nc, proto.Proposal{Program: "add"})
	nc.Close()
	var unknown *proto.Rejected
	if !errors.As(err, &unknown) {
		t.Fatalf("unknown program at a backend: got %v, want *proto.Rejected", err)
	}
	if rej.Reason != unknown.Reason {
		t.Errorf("gateway rejects a retired program with %q, a backend an unknown one with %q", rej.Reason, unknown.Reason)
	}
	post("/programs?op=register&name=add", http.StatusOK)
	if _, err := cl.Evaluate(context.Background(), "add", []uint32{2}); err != nil {
		t.Fatalf("re-registered program: %v", err)
	}

	// Fleet resize: add a second backend, remove it again; bogus ops
	// and unknown addresses are 400s.
	b2 := startBackend(t, eng, "", registerAdd(prog))
	defer b2.stop()
	post("/backends?op=add&addr="+b2.addr, http.StatusOK)
	if got := len(g.Backends()); got != 2 {
		t.Fatalf("fleet size = %d after add, want 2", got)
	}
	post("/backends?op=remove&addr="+b2.addr, http.StatusOK)
	if got := len(g.Backends()); got != 1 {
		t.Fatalf("fleet size = %d after remove, want 1", got)
	}
	post("/backends?op=remove&addr=nosuch:1", http.StatusBadRequest)
	post("/backends?op=frobnicate&addr=x", http.StatusBadRequest)
	post("/programs?op=register&name=", http.StatusBadRequest)
}

// TestGatewayMetricsHandler: the Prometheus text rendering carries the
// arm2gc_gateway_* series with per-backend labels, and ?format=json
// negotiates JSON.
func TestGatewayMetricsHandler(t *testing.T) {
	g, err := New(Config{Backends: []string{"a:1", "b:2"}})
	if err != nil {
		t.Fatal(err)
	}
	h := g.MetricsHandler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain", ct)
	}
	text := rec.Body.String()
	for _, want := range []string{
		"arm2gc_gateway_proposals_total 0",
		"arm2gc_gateway_ring_moves_total 128",
		fmt.Sprintf("arm2gc_gateway_backend_healthy{backend=%q} 1", "a:1"),
		fmt.Sprintf("arm2gc_gateway_backend_sessions_routed_total{backend=%q} 0", "b:2"),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("Prometheus text missing %q", want)
		}
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics?format=json", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("JSON Content-Type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), `"ring_moves": 128`) {
		t.Errorf("JSON body missing ring_moves: %s", rec.Body.String())
	}
}

// TestGatewayTLS runs the full fleet encrypted on both hops: clients
// dial the gateway over TLS, and the gateway dials the backends over
// TLS, all chained to one dev CA.
func TestGatewayTLS(t *testing.T) {
	ca, err := devcert.NewCA("fleet test CA")
	if err != nil {
		t.Fatal(err)
	}
	backendTLS, err := devcert.ServerConfig(ca, false)
	if err != nil {
		t.Fatal(err)
	}
	gatewayTLS, err := devcert.ServerConfig(ca, false)
	if err != nil {
		t.Fatal(err)
	}
	dialTLS, err := devcert.ClientConfig(ca, "")
	if err != nil {
		t.Fatal(err)
	}

	prog := compileProg(t, "add", addSrc)
	eng := arm2gc.NewEngine()
	b := startBackend(t, eng, "", registerAdd(prog), arm2gc.WithTLSConfig(backendTLS))
	defer b.stop()
	addr, _, stop := startGateway(t, Config{
		Backends:   []string{b.addr},
		BackendTLS: dialTLS,
		TLS:        gatewayTLS,
	})
	defer stop()

	cl, err := arm2gc.DialTLS(context.Background(), addr, dialTLS, arm2gc.WithClientEngine(eng))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Register("add", prog); err != nil {
		t.Fatal(err)
	}
	info, err := cl.Evaluate(context.Background(), "add", []uint32{11})
	if err != nil {
		t.Fatal(err)
	}
	if info.Outputs[0] != 111 {
		t.Fatalf("TLS fleet sum = %d, want 111", info.Outputs[0])
	}
}

// TestProgramsListingSorted: the admin listing must come back in a
// pinned (sorted) order, not map order — operators diff successive
// listings, and shuffling reads as churn. Regression test for the
// map-range finding the arm2gc-vet suite surfaced here.
func TestProgramsListingSorted(t *testing.T) {
	g, err := New(Config{
		Backends: []string{"a:1"},
		Programs: []string{"zeta", "mid", "alpha"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"omega", "beta", "nu"} {
		if err := g.RetireProgram(name); err != nil {
			t.Fatal(err)
		}
	}
	wantAllowed := []string{"alpha", "mid", "zeta"}
	wantRetired := []string{"beta", "nu", "omega"}
	// Repeat: a map-order listing passes a single comparison roughly one
	// time in six; thirty runs make the regression deterministic in
	// practice.
	for i := 0; i < 30; i++ {
		allowed, retired := g.Programs()
		if !reflect.DeepEqual(allowed, wantAllowed) {
			t.Fatalf("run %d: allowed = %v, want %v", i, allowed, wantAllowed)
		}
		if !reflect.DeepEqual(retired, wantRetired) {
			t.Fatalf("run %d: retired = %v, want %v", i, retired, wantRetired)
		}
	}
}

// TestFleetSnapshotOrdered: probe sweeps walk the fleet in address
// order, so a sweep cut short never strands a random suffix of the
// fleet unprobed. Regression test for the probeLoop map-range finding.
func TestFleetSnapshotOrdered(t *testing.T) {
	addrs := []string{"j:1", "c:1", "x:1", "a:1", "q:1", "m:1", "b:1", "t:1"}
	g, err := New(Config{Backends: addrs})
	if err != nil {
		t.Fatal(err)
	}
	want := append([]string(nil), addrs...)
	sort.Strings(want)
	for i := 0; i < 30; i++ {
		var got []string
		for _, b := range g.fleetSnapshot() {
			got = append(got, b.addr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: snapshot order = %v, want %v", i, got, want)
		}
	}
}

// TestDialHonorsContext: a backend that accepts TCP but never answers
// the TLS handshake must not wedge the dialer for the full DialTimeout
// once the caller's context is cancelled. Regression test for the
// ctxflow finding where dial minted context.Background() mid-stack and
// a probe sweep could hang on one half-dead backend.
func TestDialHonorsContext(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			// Hold the conn open, never speak TLS.
			defer c.Close()
		}
	}()

	g, err := New(Config{
		Backends:    []string{ln.Addr().String()},
		BackendTLS:  &tls.Config{InsecureSkipVerify: true},
		DialTimeout: time.Minute, // the test must not wait on this
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = g.dial(ctx, ln.Addr().String())
	if err == nil {
		t.Fatal("dial against a mute TLS backend succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("dial took %v after context expiry; the caller's context is not threaded through", elapsed)
	}
}

// TestGatewayOversizedProposal: a peer that has not been authorized sends
// a proposal frame announcing more than a well-formed proposal can hold —
// 1 GiB, or one byte past proto.MaxProposalBytes — followed by a valid
// proposal padded to that one byte too many. The backend server and the
// gateway each read a proposal before any authorization, and each must
// refuse it from the header alone: no verdict, the connection closed, and
// well under 1 MiB allocated however large the announced length.
func TestGatewayOversizedProposal(t *testing.T) {
	prog := compileProg(t, "add", addSrc)
	b := startBackend(t, arm2gc.NewEngine(), "", registerAdd(prog))
	defer b.stop()
	gw, _, stop := startGateway(t, Config{Backends: []string{b.addr}})
	defer stop()

	var valid bytes.Buffer
	if err := proto.WriteProposal(&valid, proto.Proposal{Program: "add"}); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, proto.MaxProposalBytes+1)
	copy(payload, valid.Bytes()[5:])
	for _, target := range []struct{ name, addr string }{{"server", b.addr}, {"gateway", gw}} {
		for _, announced := range []uint32{1 << 30, proto.MaxProposalBytes + 1} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			conn, err := net.Dial("tcp", target.addr)
			if err != nil {
				t.Fatal(err)
			}
			hdr := binary.LittleEndian.AppendUint32([]byte{wire.Propose}, announced)
			if _, err := conn.Write(append(hdr, payload...)); err != nil {
				t.Fatal(err)
			}
			_ = conn.(*net.TCPConn).CloseWrite() // a reader waiting for the rest sees EOF
			_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
			reply, err := io.ReadAll(conn)
			conn.Close()
			runtime.ReadMemStats(&after)
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				t.Fatalf("%s, %d bytes announced: connection neither answered nor closed", target.name, announced)
			}
			if len(reply) != 0 {
				t.Errorf("%s, %d bytes announced: peer answered % x, want the connection refused unread",
					target.name, announced, reply)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
				t.Errorf("%s, %d bytes announced: %d bytes allocated", target.name, announced, grew)
			}
		}
	}
}
