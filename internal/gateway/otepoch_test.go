package gateway

import (
	"context"
	"fmt"
	"net"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"arm2gc"
	"arm2gc/internal/bencher"
)

// countingConn counts the bytes a client connection moves in both
// directions.
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

// baseOTBytes is what the 128 base OTs put on the wire.
const baseOTBytes = 16*(5+8*65) + 5 + 65

// benchProgram is one of the repo benchmark's programs, compiled.
type benchProgram struct {
	name  string
	prog  *arm2gc.Program
	alice []uint32
	check func(alice, bob []uint32) []uint32
}

func compileBench(t *testing.T, name string, w *bencher.Workload) benchProgram {
	t.Helper()
	prog, _, err := w.Program()
	if err != nil {
		t.Fatal(err)
	}
	return benchProgram{name: name, prog: prog, alice: w.Alice, check: w.Check}
}

// TestGatewayOTEpochPerLink runs the fleet workload's shape: one Client
// through the gateway alternates sum32 and hamming512, which the ring
// places on two different backends. The gateway holds one link per
// backend and each link is a server connection, so each runs the base OTs
// exactly once — in the OT set-up Register routes to it — and every
// session of a program, the first included, moves identical bytes.
func TestGatewayOTEpochPerLink(t *testing.T) {
	progs := []benchProgram{
		compileBench(t, "sum32", bencher.SumWorkload(32)),
		compileBench(t, "hamming512", bencher.HammingWorkload(512)),
	}
	none := func(*arm2gc.Server) error { return nil }
	bA := startBackend(t, arm2gc.NewEngine(), "", none)
	defer bA.stop()
	bB := startBackend(t, arm2gc.NewEngine(), "", none)
	defer bB.stop()
	addr, g, stop := startGateway(t, Config{Backends: []string{bA.addr, bB.addr}})
	defer stop()

	// The ring is keyed on the backends' ephemeral addresses: find a name
	// for hamming512 that lands on the other backend from sum32.
	owner := func(name string) string { return g.route(name, nil).addr }
	for i := 0; owner(progs[1].name) == owner(progs[0].name); i++ {
		progs[1].name = fmt.Sprintf("hamming512-%d", i)
	}
	for _, b := range []*testBackend{bA, bB} {
		for _, p := range progs {
			if err := b.srv.Register(p.name, p.prog, arm2gc.WithCycleBatch(8), arm2gc.WithMaxCycles(20_000),
				arm2gc.WithGarblerInput(p.alice)); err != nil {
				t.Fatal(err)
			}
		}
	}

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	cc := &countingConn{Conn: nc}
	cl := arm2gc.NewClient(cc, arm2gc.WithClientEngine(arm2gc.NewEngine()))
	defer cl.Close()
	for _, p := range progs {
		before := cc.n.Load()
		if err := cl.Register(p.name, p.prog); err != nil {
			t.Fatal(err)
		}
		if setup := cc.n.Load() - before; setup < baseOTBytes {
			t.Errorf("%s: the OT set-up moved %d bytes, less than the base OTs' %d", p.name, setup, baseOTBytes)
		}
	}
	const rounds = 3
	moved := map[string][]int64{}
	for r := 0; r < rounds; r++ {
		for _, p := range progs {
			bob := make([]uint32, p.prog.Layout.BobWords)
			for i := range bob {
				bob[i] = uint32(r*7919 + i*104729)
			}
			before := cc.n.Load()
			info, err := cl.Evaluate(context.Background(), p.name, bob)
			if err != nil {
				t.Fatalf("round %d, %s: %v", r, p.name, err)
			}
			if want := p.check(p.alice, bob); !slices.Equal(info.Outputs[:len(want)], want) {
				t.Fatalf("round %d, %s: outputs %v, want %v", r, p.name, info.Outputs, want)
			}
			moved[p.name] = append(moved[p.name], cc.n.Load()-before)
		}
	}
	for _, p := range progs {
		m := moved[p.name]
		for r := 1; r < rounds; r++ {
			if m[r] != m[0] {
				t.Errorf("%s: session %d moved %d bytes, the first session %d", p.name, r, m[r], m[0])
			}
		}
	}
	for _, b := range []*testBackend{bA, bB} {
		waitFor(t, "sessions to count", func() bool { return b.srv.SessionsServed() == rounds })
		if m := b.srv.Metrics(); m.OTBaseRuns != 1 || m.OTExtensionsReused != rounds {
			t.Errorf("backend %s: base runs %d, reused %d: want 1 and %d", b.addr, m.OTBaseRuns, m.OTExtensionsReused, rounds)
		}
	}
}

// TestGatewayBackendRestartRerunsBaseOT: the client's connection to the
// gateway outlives a backend restart, and so does the epoch its set-up
// established — but the restarted backend holds none, so the next session
// proposes a stale epoch, is granted a fresh one, runs the base OTs
// itself and decodes correct outputs; the one after extends again.
func TestGatewayBackendRestartRerunsBaseOT(t *testing.T) {
	prog := compileProg(t, "add", addSrc)
	b := startBackend(t, arm2gc.NewEngine(), "", registerAdd(prog))
	addr, _, stop := startGateway(t, Config{Backends: []string{b.addr}, RetryAfter: 20 * time.Millisecond})
	defer stop()

	cl, err := arm2gc.Dial(context.Background(), addr, arm2gc.WithClientEngine(arm2gc.NewEngine()))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Register("add", prog); err != nil {
		t.Fatal(err)
	}
	evaluate := func(bob uint32) {
		t.Helper()
		// The first proposal after the restart finds the gateway's link to
		// the old process dead; the gateway ejects the backend and sheds
		// until its prober sees the new one.
		info, err := cl.Evaluate(context.Background(), "add", []uint32{bob}, arm2gc.WithRetry(100))
		if err != nil {
			t.Fatal(err)
		}
		if info.Outputs[0] != 100+bob {
			t.Fatalf("sum = %d, want %d", info.Outputs[0], 100+bob)
		}
	}
	evaluate(1)
	evaluate(2)
	waitFor(t, "sessions to count", func() bool { return b.srv.SessionsServed() == 2 })
	if m := b.srv.Metrics(); m.OTBaseRuns != 1 || m.OTExtensionsReused != 2 {
		t.Fatalf("before the restart: base runs %d, reused %d, want 1 (the set-up) and 2", m.OTBaseRuns, m.OTExtensionsReused)
	}

	b.stop()
	b = startBackend(t, arm2gc.NewEngine(), b.addr, registerAdd(prog))
	defer b.stop()
	evaluate(3)
	evaluate(4)
	waitFor(t, "sessions to count", func() bool { return b.srv.SessionsServed() == 2 })
	if m := b.srv.Metrics(); m.OTBaseRuns != 1 || m.OTExtensionsReused != 1 {
		t.Fatalf("after the restart: base runs %d, reused %d, want 1 and 1", m.OTBaseRuns, m.OTExtensionsReused)
	}
}
