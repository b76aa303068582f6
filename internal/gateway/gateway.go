package gateway

import (
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"arm2gc/internal/proto"
)

// Defaults for Config's zero values.
const (
	DefaultDialTimeout   = 5 * time.Second
	DefaultProbeInterval = 5 * time.Second
	DefaultProbeTimeout  = 3 * time.Second
	DefaultRetryAfter    = time.Second
)

// probeProgram is the program name health probes propose. No sane
// operator registers it, so a live backend answers with a rejection —
// which is exactly the proof the prober wants: the accept loop, TLS
// stack and negotiation path all work. A backend that (somehow) grants
// it is equally alive; the prober just closes the connection.
const probeProgram = "arm2gc.gateway.probe"

// Config configures a Gateway.
type Config struct {
	// Backends are the initial backend garbler addresses. More can be
	// added (and these removed) live via AddBackend/RemoveBackend.
	Backends []string

	// MaxInflight bounds concurrent sessions per backend; a program whose
	// affinity backend is saturated spills to the next ring node. Zero
	// means unbounded (no spill).
	MaxInflight int

	// RatePerPeer / BurstPerPeer configure per-peer load shedding: each
	// client IP may open RatePerPeer sessions per second with bursts up
	// to BurstPerPeer. Zero RatePerPeer disables shedding.
	RatePerPeer  float64
	BurstPerPeer float64

	// RetryAfter is the hint attached to shed rejections (default 1s).
	RetryAfter time.Duration

	// Programs, when non-empty, restricts routing to the listed program
	// names; anything else is rejected at the gateway without costing a
	// backend round trip. Empty routes every program.
	Programs []string

	// ProbeInterval is the health-check period (default 5s); ProbeTimeout
	// bounds one probe (default 3s).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration

	// DialTimeout bounds one backend dial (default 5s).
	DialTimeout time.Duration

	// BackendTLS, when set, dials backends over TLS with this client
	// config (cloned per backend; an empty ServerName is filled from the
	// backend's host).
	BackendTLS *tls.Config

	// TLS, when set, serves the gateway's own listener over TLS. Use a
	// GetCertificate-based config (certwatch.Reloader) for live cert
	// rotation.
	TLS *tls.Config

	// Logf routes the gateway's diagnostics (default: discarded).
	Logf func(format string, args ...any)
}

// backend is one fleet member's live state.
type backend struct {
	addr string

	healthy  atomic.Bool
	inflight atomic.Int64
	routed   atomic.Int64 // proposals forwarded
	failed   atomic.Int64 // sessions that died on this backend's side
}

// Gateway fronts a fleet of backend garblers. Create with New, serve
// with Serve, operate live via AddBackend/RemoveBackend,
// RegisterProgram/RetireProgram and the AdminHandler.
type Gateway struct {
	cfg     Config
	logf    func(format string, args ...any)
	limiter *peerLimiter

	mu       sync.Mutex
	backends map[string]*backend
	ring     *ring
	allow    map[string]bool // nil: every program routes
	retired  map[string]bool

	met gatewayMetrics
}

// New creates a Gateway. At least one backend must be configured (more
// can be added live, but a gateway with zero backends can only shed).
func New(cfg Config) (*Gateway, error) {
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = DefaultRetryAfter
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = DefaultDialTimeout
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = DefaultProbeInterval
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = DefaultProbeTimeout
	}
	g := &Gateway{
		cfg:      cfg,
		logf:     cfg.Logf,
		backends: make(map[string]*backend),
		ring:     new(ring),
		retired:  make(map[string]bool),
	}
	if g.logf == nil {
		g.logf = func(string, ...any) {}
	}
	if cfg.RatePerPeer > 0 {
		g.limiter = newPeerLimiter(cfg.RatePerPeer, cfg.BurstPerPeer)
	}
	if len(cfg.Programs) > 0 {
		g.allow = make(map[string]bool, len(cfg.Programs))
		for _, name := range cfg.Programs {
			g.allow[name] = true
		}
	}
	for _, addr := range cfg.Backends {
		if err := g.AddBackend(addr); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// AddBackend adds a backend to the fleet live. It joins the ring
// immediately — optimistically healthy, so traffic can reach it before
// the first probe — and only the hash arcs adjacent to its virtual nodes
// move.
func (g *Gateway) AddBackend(addr string) error {
	if addr == "" {
		return fmt.Errorf("gateway: empty backend address")
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, dup := g.backends[addr]; dup {
		return fmt.Errorf("gateway: backend %q already present", addr)
	}
	b := &backend{addr: addr}
	b.healthy.Store(true)
	g.backends[addr] = b
	g.met.ringMoves.Add(int64(g.ring.add(addr)))
	return nil
}

// RemoveBackend retires a backend from the fleet live. In-flight
// sessions on it run to completion; no new session routes there.
func (g *Gateway) RemoveBackend(addr string) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.backends[addr]; !ok {
		return fmt.Errorf("gateway: backend %q not present", addr)
	}
	delete(g.backends, addr)
	g.met.ringMoves.Add(int64(g.ring.remove(addr)))
	return nil
}

// Backends lists the fleet, sorted by address.
func (g *Gateway) Backends() []BackendStatus {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]BackendStatus, 0, len(g.backends))
	for _, addr := range g.ring.addrs() {
		b := g.backends[addr]
		if b == nil {
			continue
		}
		out = append(out, BackendStatus{
			Addr:     b.addr,
			Healthy:  b.healthy.Load(),
			Inflight: b.inflight.Load(),
			Routed:   b.routed.Load(),
			Failed:   b.failed.Load(),
		})
	}
	return out
}

// RegisterProgram (re-)admits a program name for routing: it clears any
// retirement, and joins the allowlist when one is configured.
func (g *Gateway) RegisterProgram(name string) error {
	if name == "" || len(name) > proto.MaxProgramName {
		return fmt.Errorf("gateway: invalid program name")
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	delete(g.retired, name)
	if g.allow != nil {
		g.allow[name] = true
	}
	return nil
}

// RetireProgram takes a program out of service fleet-wide: proposals for
// it are rejected at the gateway from now on. RegisterProgram undoes it.
func (g *Gateway) RetireProgram(name string) error {
	if name == "" {
		return fmt.Errorf("gateway: invalid program name")
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.retired[name] = true
	if g.allow != nil {
		delete(g.allow, name)
	}
	return nil
}

// Programs reports the explicit allowlist ("" slice when the gateway
// routes every non-retired program) and the retired set, each sorted —
// the listing feeds the admin API and operator diffs, where map-order
// shuffling between calls reads as churn that never happened.
func (g *Gateway) Programs() (allowed, retired []string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for name := range g.allow {
		allowed = append(allowed, name)
	}
	for name := range g.retired {
		retired = append(retired, name)
	}
	sort.Strings(allowed)
	sort.Strings(retired)
	return allowed, retired
}

// routable decides whether a proposed program may route at all.
func (g *Gateway) routable(name string) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.retired[name] {
		return false
	}
	return g.allow == nil || g.allow[name]
}

// route picks the backend for one proposal: the program's hash-ring
// affinity node, spilling past saturated or unhealthy ones. tried holds
// backends this proposal already failed on, so a retry after a dead
// dial moves on instead of looping. Returns nil when no backend
// qualifies.
func (g *Gateway) route(program string, tried map[string]bool) *backend {
	g.mu.Lock()
	defer g.mu.Unlock()
	ok := func(addr string) bool {
		b := g.backends[addr]
		if b == nil || tried[addr] || !b.healthy.Load() {
			return false
		}
		return g.cfg.MaxInflight <= 0 || b.inflight.Load() < int64(g.cfg.MaxInflight)
	}
	if addr := g.ring.pick(program, ok); addr != "" {
		return g.backends[addr]
	}
	return nil
}

// eject marks a backend unhealthy after a dial or proxy failure. The
// prober re-admits it once it answers again.
func (g *Gateway) eject(b *backend, cause error) {
	if b.healthy.CompareAndSwap(true, false) {
		g.met.ejections.Add(1)
		g.logf("gateway: ejected backend %s: %v", b.addr, cause)
	}
}

// dial opens one backend connection, with TLS when configured. ctx
// bounds the whole dial, TCP connect and TLS handshake both: before it
// was threaded here, a backend that accepted TCP but never answered the
// handshake pinned the caller until the TLS handshake's own (absent)
// timeout — a gateway shutdown or probe deadline couldn't interrupt it.
func (g *Gateway) dial(ctx context.Context, addr string) (net.Conn, error) {
	d := net.Dialer{Timeout: g.cfg.DialTimeout}
	nc, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	if g.cfg.BackendTLS == nil {
		return nc, nil
	}
	tcfg := g.cfg.BackendTLS.Clone()
	if tcfg.ServerName == "" {
		if host, _, err := net.SplitHostPort(addr); err == nil {
			tcfg.ServerName = host
		}
	}
	tc := tls.Client(nc, tcfg)
	if err := tc.HandshakeContext(ctx); err != nil {
		_ = nc.Close()
		return nil, err
	}
	return tc, nil
}

// Serve accepts client connections on ln until ctx is cancelled,
// relaying each connection's sessions on its own goroutine and running
// the health prober in the background. It returns nil on context-driven
// shutdown and the accept error otherwise.
func (g *Gateway) Serve(ctx context.Context, ln net.Listener) error {
	if ctx == nil {
		ctx = context.Background()
	}
	probeCtx, stopProbe := context.WithCancel(ctx)
	defer stopProbe()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		g.probeLoop(probeCtx)
	}()

	// Connection handlers are tracked so Serve returns only when every
	// relay goroutine has; shutdown closes the listener and all conns.
	var conns sync.Map
	closed := make(chan struct{})
	stopClose := context.AfterFunc(ctx, func() {
		defer close(closed)
		_ = ln.Close() // unblocks Accept; the accept loop reports the real error
		conns.Range(func(k, _ any) bool {
			_ = k.(net.Conn).Close()
			return true
		})
	})

	var acceptErr error
	for {
		nc, err := ln.Accept()
		if err != nil {
			if ctx.Err() == nil {
				acceptErr = err
			}
			break
		}
		if g.cfg.TLS != nil {
			if _, already := nc.(*tls.Conn); !already {
				nc = tls.Server(nc, g.cfg.TLS)
			}
		}
		g.met.connsAccepted.Add(1)
		g.met.connsActive.Add(1)
		conns.Store(nc, struct{}{})
		wg.Add(1)
		go func(nc net.Conn) {
			defer wg.Done()
			defer g.met.connsActive.Add(-1)
			defer conns.Delete(nc)
			g.handle(ctx, nc)
		}(nc)
	}
	if !stopClose() {
		<-closed // the shutdown closes under way land before Serve returns
	}
	stopProbe()
	wg.Wait()
	return acceptErr
}

// fleetSnapshot copies the backend set out from under the lock, sorted
// by address. Probe sweeps walk this order rather than raw map order: a
// sweep cut short by shutdown or a slow backend must not leave a
// *random* suffix of the fleet unprobed, or an unlucky dead backend can
// dodge ejection for several intervals in a row.
func (g *Gateway) fleetSnapshot() []*backend {
	g.mu.Lock()
	fleet := make([]*backend, 0, len(g.backends))
	for _, b := range g.backends {
		fleet = append(fleet, b)
	}
	g.mu.Unlock()
	sort.Slice(fleet, func(i, j int) bool { return fleet[i].addr < fleet[j].addr })
	return fleet
}

// probeLoop health-checks every backend each ProbeInterval: a dead one
// is ejected, a recovered one re-admitted.
func (g *Gateway) probeLoop(ctx context.Context) {
	t := time.NewTicker(g.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		for _, b := range g.fleetSnapshot() {
			if ctx.Err() != nil {
				return
			}
			g.probe(ctx, b)
		}
	}
}

// probe dials a backend and proposes the probe program, expecting a
// rejection — proof the whole negotiation path is live.
func (g *Gateway) probe(ctx context.Context, b *backend) {
	g.met.probes.Add(1)
	err := g.probeOnce(ctx, b.addr)
	if err != nil {
		g.met.probeFailures.Add(1)
		g.eject(b, fmt.Errorf("probe: %w", err))
		return
	}
	if b.healthy.CompareAndSwap(false, true) {
		g.met.readmissions.Add(1)
		g.logf("gateway: re-admitted backend %s", b.addr)
	}
}

func (g *Gateway) probeOnce(ctx context.Context, addr string) error {
	nc, err := g.dial(ctx, addr)
	if err != nil {
		return err
	}
	defer nc.Close()
	if err := nc.SetDeadline(time.Now().Add(g.cfg.ProbeTimeout)); err != nil {
		return err // a probe that can't bound itself must not hang the prober
	}
	_, err = proto.Negotiate(ctx, nc, proto.Proposal{Program: probeProgram})
	var rej *proto.Rejected
	if errors.As(err, &rej) {
		return nil // the expected healthy answer
	}
	return err // nil (granted: alive too) or the transport failure
}
