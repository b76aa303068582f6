package arm2gc

import (
	"context"
	"net"
	"testing"
	"time"

	"arm2gc/internal/gateway"
)

// TestSessionsShareCircuitDigest: every session of an Engine takes its
// session id from the one cached netlist, whose digest is memoized
// (internal/circuit's TestHashComputedOnce), so the ≈13.5k-gate SHA-256
// pass runs once per built machine, not twice per session. The id itself
// must not move: it equals the id a freshly built machine digests to.
func TestSessionsShareCircuitDigest(t *testing.T) {
	prog := compileAdd(t)
	eng := NewEngine()
	gs, err := eng.Session(prog, WithMaxCycles(10_000))
	if err != nil {
		t.Fatal(err)
	}
	es, err := eng.Session(prog, WithMaxCycles(10_000))
	if err != nil {
		t.Fatal(err)
	}
	if gs.m.cpu.Circuit != es.m.cpu.Circuit {
		t.Fatal("two sessions of one Engine hold distinct netlists: each would digest its own")
	}
	before, err := gs.sessionID()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, bob := runTwoParty(t, gs, es, []uint32{40}, []uint32{uint32(i)}); bob.Outputs[0] != 40+uint32(i) {
			t.Fatalf("session %d: outputs %v", i, bob.Outputs)
		}
	}
	after, err := es.sessionID()
	if err != nil {
		t.Fatal(err)
	}

	fs, err := NewEngine().Session(prog, WithMaxCycles(10_000))
	if err != nil {
		t.Fatal(err)
	}
	if fs.m.cpu.Circuit == gs.m.cpu.Circuit {
		t.Fatal("a new Engine reused the first one's netlist")
	}
	fresh, err := fs.sessionID()
	if err != nil {
		t.Fatal(err)
	}
	if before != fresh || after != fresh {
		t.Errorf("session id %x before / %x after two sessions, freshly digested %x", before[:4], after[:4], fresh[:4])
	}
	if eng.Builds() != 1 {
		t.Errorf("builds = %d, want 1", eng.Builds())
	}
}

// TestOTPathsExactRunInfo runs the same evaluation over every route the
// OT flights can take — straight to a live server, to a garble-ahead pool
// hit, and through the gateway's frame relay to each — and wants
// the client's RunInfo equal field for field on all of them.
func TestOTPathsExactRunInfo(t *testing.T) {
	prog := compileAdd(t)
	eng := NewEngine()
	register := func(srv *Server) {
		t.Helper()
		if err := srv.Register("add", prog, WithMaxCycles(10_000), WithGarblerInput([]uint32{100})); err != nil {
			t.Fatal(err)
		}
	}
	live := NewServer(eng)
	register(live)
	liveAddr, stopLive := startServer(t, live)
	defer stopLive()

	pooled := NewServer(eng, WithGarbleAhead(PoolConfig{}))
	register(pooled)
	if err := pooled.WarmGarbleAhead(context.Background()); err != nil {
		t.Fatal(err)
	}
	pooledAddr, stopPooled := startServer(t, pooled)
	defer stopPooled()

	relay := func(backend string) string {
		t.Helper()
		g, err := gateway.New(gateway.Config{Backends: []string{backend}, Logf: t.Logf})
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
		t.Cleanup(func() {
			cancel()
			select {
			case err := <-done:
				if err != nil {
					t.Errorf("gateway Serve returned %v on shutdown", err)
				}
			case <-time.After(10 * time.Second):
				t.Error("gateway Serve did not return after shutdown")
			}
		})
		return ln.Addr().String()
	}

	evaluate := func(addr string) *RunInfo {
		t.Helper()
		cl, err := Dial(context.Background(), addr, WithClientEngine(eng))
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		if err := cl.Register("add", prog); err != nil {
			t.Fatal(err)
		}
		info, err := cl.Evaluate(context.Background(), "add", []uint32{7})
		if err != nil {
			t.Fatal(err)
		}
		return info
	}

	want := evaluate(liveAddr)
	if want.Outputs[0] != 107 || want.Outputs[1] != 100 || !want.Halted || want.GarbledTables == 0 || want.TableFrames == 0 {
		t.Fatalf("live session: %+v", want)
	}
	for _, route := range []struct {
		name string
		addr string
	}{
		{"pooled", pooledAddr},
		{"gateway to live", relay(liveAddr)},
		{"gateway to pooled", relay(pooledAddr)},
	} {
		if got := evaluate(route.addr); !sameRun(got, want) {
			t.Errorf("%s: RunInfo %+v, live session %+v", route.name, got, want)
		}
	}
	if m := pooled.Metrics().GarbleAhead; m.Hits != 2 || m.Misses != 0 {
		t.Errorf("pool hits %d misses %d, want 2/0: the pooled routes were not served from the pool", m.Hits, m.Misses)
	}
}
