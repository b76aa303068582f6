package arm2gc

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// waitMetric polls the server's metrics until check passes or the
// deadline fails the test — for counters the pool's background refill
// workers move.
func waitMetric(t *testing.T, srv *Server, what string, check func(*GarbleAheadMetrics) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if m := srv.Metrics().GarbleAhead; m != nil && check(m) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("garble-ahead metrics never reached: %s (%+v)", what, srv.Metrics().GarbleAhead)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServerGarbleAheadHit is the subsystem's acceptance anchor: a warmed
// pool serves client sessions from pre-garbled streams — correct outputs,
// every session a pool hit, and the background workers restore the depth
// afterwards.
func TestServerGarbleAheadHit(t *testing.T) {
	prog := compileAdd(t)
	eng := NewEngine()
	srv := NewServer(eng, WithGarbleAhead(PoolConfig{Depth: 2}))
	if err := srv.Register("add", prog,
		WithMaxCycles(10_000), WithGarblerInput([]uint32{100})); err != nil {
		t.Fatal(err)
	}
	if err := srv.WarmGarbleAhead(context.Background()); err != nil {
		t.Fatal(err)
	}
	if m := srv.Metrics().GarbleAhead; m == nil || m.Ready != 2 || m.Refills != 2 {
		t.Fatalf("after warming: %+v, want 2 ready / 2 refills", m)
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
	for i := 0; i < 2; i++ {
		info, err := cl.Evaluate(context.Background(), "add", []uint32{uint32(7 + i)})
		if err != nil {
			t.Fatal(err)
		}
		if info.Outputs[0] != uint32(107+i) {
			t.Fatalf("session %d: sum = %d, want %d", i, info.Outputs[0], 107+i)
		}
	}
	m := srv.Metrics().GarbleAhead
	if m.Hits != 2 || m.Misses != 0 {
		t.Fatalf("hits %d misses %d, want 2/0", m.Hits, m.Misses)
	}
	if p := m.Programs["add"]; p.Depth != 2 {
		t.Fatalf("program depth %d, want 2", p.Depth)
	}
	// Demand-driven refill: the hits woke the workers Serve started.
	waitMetric(t, srv, "refill to depth after hits", func(m *GarbleAheadMetrics) bool {
		return m.Ready == 2 && m.Refills >= 4
	})

	// The same numbers must be scrapable from the Prometheus endpoint.
	rec := httptest.NewRecorder()
	srv.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"arm2gc_pool_hits_total 2",
		"arm2gc_pool_misses_total 0",
		"arm2gc_pool_ready 2",
		`arm2gc_pool_program_ready{program="add"} 2`,
		`arm2gc_pool_program_depth{program="add"} 2`,
	} {
		if !strings.Contains(body, want+"\n") {
			t.Fatalf("scrape missing %q:\n%s", want, body)
		}
	}
	// The pool never touches disk, so no series may describe spilled bytes.
	if strings.Contains(body, "spill") {
		t.Fatalf("scrape still reports spill series:\n%s", body)
	}
	shutdown()
}

// TestServerGarbleAheadMissFallsBack: a client proposing a non-default
// option negotiates a different session id, misses the pool, and must be
// garbled live — correct outputs, counted as a miss.
func TestServerGarbleAheadMissFallsBack(t *testing.T) {
	prog := compileAdd(t)
	eng := NewEngine()
	srv := NewServer(eng, WithGarbleAhead(PoolConfig{Depth: 1}))
	if err := srv.Register("add", prog,
		WithMaxCycles(10_000), WithGarblerInput([]uint32{50})); err != nil {
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
	info, err := cl.Evaluate(context.Background(), "add", []uint32{3}, WithCycleBatch(4))
	if err != nil {
		t.Fatal(err)
	}
	if info.Outputs[0] != 53 {
		t.Fatalf("sum = %d, want 53", info.Outputs[0])
	}
	m := srv.Metrics().GarbleAhead
	if m.Hits != 0 || m.Misses != 1 {
		t.Fatalf("hits %d misses %d, want 0/1 for a non-default proposal", m.Hits, m.Misses)
	}
	if m.Ready == 0 {
		t.Fatal("the miss consumed a pooled entry")
	}

	// A default-option session right after still hits the warm entry.
	info, err = cl.Evaluate(context.Background(), "add", []uint32{4})
	if err != nil {
		t.Fatal(err)
	}
	if info.Outputs[0] != 54 {
		t.Fatalf("sum = %d, want 54", info.Outputs[0])
	}
	if m = srv.Metrics().GarbleAhead; m.Hits != 1 {
		t.Fatalf("hits %d after a default-option session, want 1", m.Hits)
	}
}

// TestServerGarbleAheadOptOut: WithGarbleAheadOff keeps a program out of
// the pool entirely — served live, counted neither hit nor miss — while a
// WithGarbleAheadDepth sibling pools at its own depth.
func TestServerGarbleAheadOptOut(t *testing.T) {
	prog := compileAdd(t)
	eng := NewEngine()
	srv := NewServer(eng, WithGarbleAhead(PoolConfig{Depth: 1}))
	if err := srv.Register("off", prog,
		WithMaxCycles(10_000), WithGarblerInput([]uint32{10}), WithGarbleAheadOff()); err != nil {
		t.Fatal(err)
	}
	if err := srv.Register("deep", prog,
		WithMaxCycles(10_000), WithGarblerInput([]uint32{20}), WithGarbleAheadDepth(3)); err != nil {
		t.Fatal(err)
	}
	if err := srv.WarmGarbleAhead(context.Background()); err != nil {
		t.Fatal(err)
	}
	m := srv.Metrics().GarbleAhead
	if m.Ready != 3 {
		t.Fatalf("ready %d, want 3 (only the deep program pools)", m.Ready)
	}
	if _, pooled := m.Programs["off"]; pooled {
		t.Fatal("opted-out program appears in the pool")
	}
	if p := m.Programs["deep"]; p.Depth != 3 || p.Ready != 3 {
		t.Fatalf("deep program %+v, want depth 3 ready 3", p)
	}
	addr, shutdown := startServer(t, srv)
	defer shutdown()

	cl, err := Dial(context.Background(), addr, WithClientEngine(eng))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Register("off", prog); err != nil {
		t.Fatal(err)
	}
	info, err := cl.Evaluate(context.Background(), "off", []uint32{5})
	if err != nil {
		t.Fatal(err)
	}
	if info.Outputs[0] != 15 {
		t.Fatalf("sum = %d, want 15", info.Outputs[0])
	}
	if m = srv.Metrics().GarbleAhead; m.Hits != 0 || m.Misses != 0 {
		t.Fatalf("opted-out session counted against the pool: hits %d misses %d", m.Hits, m.Misses)
	}
}
