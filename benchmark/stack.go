package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"time"

	"arm2gc"
	"arm2gc/internal/bencher"
	"arm2gc/internal/gateway"
)

// fleetPortBases are loopback port pairs (base, base+1) for the two fleet
// backends. The gateway's hash ring is keyed on the backend address, so
// ephemeral ports would make "which backend owns which program" a coin
// flip per process; on each of these pairs sum32 lands on base and
// hamming512 on base+1. Later pairs are fallbacks for a port in use.
var fleetPortBases = []int{27322, 27342, 27374, 27382}

// compiled is one program of a round: the linked binary every party
// registers, the reference function and the server's private input.
type compiled struct {
	program
	prog  *arm2gc.Program
	check func(alice, bob []uint32) []uint32
	alice []uint32
}

// backend is one serving process of the stack: an Engine, a Server and
// its loopback listener. stop shuts it down and waits for Serve.
type backend struct {
	eng  *arm2gc.Engine
	srv  *arm2gc.Server
	addr string
	stop func() error
}

// evalClient is one evaluator: its own Engine (a client is its own
// process in a deployment, so it shares no cache with the servers), one
// counted TCP connection and the arm2gc.Client over it.
type evalClient struct {
	eng  *arm2gc.Engine
	conn *countingConn
	cl   *arm2gc.Client
	opts []arm2gc.Option
}

// stack is everything one round builds fresh: the servers, the gateway
// (fleet workloads) and the clients, all in this process over loopback TCP.
type stack struct {
	w        *workload
	progs    []compiled
	backends []*backend
	gw       *gateway.Gateway
	gwStop   func() error
	addr     string // where clients dial: the gateway, or the only server
	clients  []*evalClient
}

func randWords(rng *rand.Rand, n int) []uint32 {
	ws := make([]uint32, n)
	for i := range ws {
		ws[i] = rng.Uint32()
	}
	return ws
}

// serveInBackground runs serve on its own goroutine and returns the
// function that cancels it and waits for it to return.
func serveInBackground(serve func(context.Context) error) (stop func() error) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serve(ctx) }()
	return func() error {
		cancel()
		return <-done
	}
}

// listenFleet binds the two backend listeners on the first free pair of
// fleetPortBases.
func listenFleet() ([]net.Listener, error) {
	var lastErr error
	for _, base := range fleetPortBases {
		a, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", base))
		if err != nil {
			lastErr = err
			continue
		}
		b, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", base+1))
		if err != nil {
			lastErr = err
			_ = a.Close() // half a pair is no use; try the next one
			continue
		}
		return []net.Listener{a, b}, nil
	}
	return nil, fmt.Errorf("no free fleet port pair: %w", lastErr)
}

// buildStack performs the set-up a round pays for: compile, register
// (netlist synthesis), pool warm-up, listeners, gateway and dials. The
// warm-up sessions, which record the classification traces, are run by
// the caller. tr may be nil; parent is the set-up span.
func buildStack(ctx context.Context, w *workload, rng *rand.Rand, tr *tracer, parent int) (st *stack, err error) {
	st = &stack{w: w}
	defer func() {
		if err != nil {
			err = errors.Join(err, st.close())
		}
	}()

	sp := tr.start("minicc.compile", parent, 0)
	for _, p := range w.programs {
		var bw *bencher.Workload = p.make()
		prog, _, err := bw.Program()
		if err != nil {
			return st, err
		}
		st.progs = append(st.progs, compiled{program: p, prog: prog, check: bw.Check,
			alice: randWords(rng, prog.Layout.AliceWords)})
	}
	tr.end(sp)

	var lns []net.Listener
	if w.fleet {
		if lns, err = listenFleet(); err != nil {
			return st, err
		}
	} else {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return st, err
		}
		lns = []net.Listener{ln}
	}
	for _, ln := range lns {
		be := &backend{eng: arm2gc.NewEngine(), addr: ln.Addr().String()}
		var sopts []arm2gc.ServerOption
		if w.fleet {
			sopts = append(sopts, arm2gc.WithGarbleAhead(arm2gc.PoolConfig{}))
		}
		be.srv = arm2gc.NewServer(be.eng, sopts...)
		sp = tr.start("server.register", parent, 0)
		for _, p := range st.progs {
			reg := []arm2gc.Option{arm2gc.WithCycleBatch(cycleBatch), arm2gc.WithMaxCycles(maxCycles),
				arm2gc.WithGarblerInput(p.alice)}
			if w.traceReuse {
				reg = append(reg, arm2gc.WithTraceReuse())
			}
			if err := be.srv.Register(p.name, p.prog, reg...); err != nil {
				_ = ln.Close() // never served; the registration error is the one to report
				return st, err
			}
		}
		tr.end(sp)
		sp = tr.start("pool.warm", parent, 0)
		if err := be.srv.WarmGarbleAhead(ctx); err != nil {
			_ = ln.Close() // as above
			return st, err
		}
		tr.end(sp)
		be.stop = serveInBackground(func(ctx context.Context) error { return be.srv.Serve(ctx, ln) })
		st.backends = append(st.backends, be)
	}

	st.addr = st.backends[0].addr
	if w.fleet {
		addrs := make([]string, len(st.backends))
		for i, be := range st.backends {
			addrs[i] = be.addr
		}
		if st.gw, err = gateway.New(gateway.Config{Backends: addrs}); err != nil {
			return st, err
		}
		gln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return st, err
		}
		st.addr = gln.Addr().String()
		st.gwStop = serveInBackground(func(ctx context.Context) error { return st.gw.Serve(ctx, gln) })
	}

	sp = tr.start("dial", parent, 0)
	for i := 0; i < w.clients; i++ {
		c, err := st.dial(ctx, st.addr)
		if err != nil {
			return st, err
		}
		st.clients = append(st.clients, c)
	}
	tr.end(sp)
	return st, nil
}

// dial connects one evaluator to addr and registers the round's programs.
func (st *stack) dial(ctx context.Context, addr string) (*evalClient, error) {
	var d net.Dialer
	nc, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &evalClient{eng: arm2gc.NewEngine(), conn: &countingConn{Conn: nc}}
	c.cl = arm2gc.NewClient(c.conn, arm2gc.WithClientEngine(c.eng))
	for _, p := range st.progs {
		if err := c.cl.Register(p.name, p.prog); err != nil {
			return nil, errors.Join(err, c.cl.Close())
		}
	}
	if st.w.traceReuse {
		c.opts = append(c.opts, arm2gc.WithTraceReuse())
	}
	if st.w.readAhead > 0 {
		c.opts = append(c.opts, arm2gc.WithReadAhead(st.w.readAhead))
	}
	return c, nil
}

// close tears the stack down front to back and waits for every serving
// goroutine; it is safe on a half-built stack.
func (st *stack) close() error {
	var errs []error
	for _, c := range st.clients {
		errs = append(errs, c.cl.Close())
	}
	if st.gwStop != nil {
		errs = append(errs, st.gwStop())
	}
	for _, be := range st.backends {
		errs = append(errs, be.stop())
	}
	return errors.Join(errs...)
}

// waitServed blocks until the servers have accounted n sessions: the tail
// of a session (the outputs frame) may still be in flight to the garbler
// when Evaluate returns, and server-side counters are read only after it
// has landed.
func (st *stack) waitServed(ctx context.Context, n int64) error {
	for {
		var served int64
		for _, be := range st.backends {
			served += be.srv.SessionsServed()
		}
		if served >= n {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("servers accounted %d of %d sessions: %w", served, n, ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}
