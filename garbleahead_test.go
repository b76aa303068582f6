package arm2gc

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"arm2gc/internal/pool"
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
	srv := NewServer(eng, WithGarbleAhead(PoolConfig{}))
	if err := srv.Register("add", prog,
		WithMaxCycles(10_000), WithGarblerInput([]uint32{100})); err != nil {
		t.Fatal(err)
	}
	if err := srv.WarmGarbleAhead(context.Background()); err != nil {
		t.Fatal(err)
	}
	if m := srv.Metrics().GarbleAhead; m == nil || m.Ready != pool.Depth || m.Refills != pool.Depth {
		t.Fatalf("after warming: %+v, want %d ready / %d refills", m, pool.Depth, pool.Depth)
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
	for i := 0; i < pool.Depth; i++ {
		info, err := cl.Evaluate(context.Background(), "add", []uint32{uint32(7 + i)})
		if err != nil {
			t.Fatal(err)
		}
		if info.Outputs[0] != uint32(107+i) {
			t.Fatalf("session %d: sum = %d, want %d", i, info.Outputs[0], 107+i)
		}
	}
	m := srv.Metrics().GarbleAhead
	if m.Hits != pool.Depth || m.Misses != 0 {
		t.Fatalf("hits %d misses %d, want %d/0", m.Hits, m.Misses, pool.Depth)
	}
	// Demand-driven refill: the hits woke the workers Serve started.
	waitMetric(t, srv, "refill to depth after hits", func(m *GarbleAheadMetrics) bool {
		return m.Ready == pool.Depth && m.Refills >= 2*pool.Depth
	})

	// The same numbers must be scrapable from the Prometheus endpoint.
	rec := httptest.NewRecorder()
	srv.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		fmt.Sprintf("arm2gc_pool_hits_total %d", pool.Depth),
		"arm2gc_pool_misses_total 0",
		fmt.Sprintf("arm2gc_pool_ready %d", pool.Depth),
		fmt.Sprintf(`arm2gc_pool_program_ready{program="add"} %d`, pool.Depth),
	} {
		if !strings.Contains(body, want+"\n") {
			t.Fatalf("scrape missing %q:\n%s", want, body)
		}
	}
	// The pool never touches disk, so no series may describe spilled
	// bytes, and its depth is a constant, so no series reports it.
	for _, gone := range []string{"spill", "depth"} {
		if strings.Contains(body, gone) {
			t.Fatalf("scrape still reports %s series:\n%s", gone, body)
		}
	}
	shutdown()
}

// TestServerGarbleAheadMissFallsBack: a client proposing a non-default
// option negotiates a different session id, misses the pool, and must be
// garbled live — correct outputs, counted as a miss.
func TestServerGarbleAheadMissFallsBack(t *testing.T) {
	prog := compileAdd(t)
	eng := NewEngine()
	srv := NewServer(eng, WithGarbleAhead(PoolConfig{}))
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
