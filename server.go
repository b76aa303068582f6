package arm2gc

import (
	"context"
	"crypto/subtle"
	"crypto/tls"
	"crypto/x509"
	"errors"
	"fmt"
	"net"
	"runtime/debug"
	"sync"
	"time"

	"arm2gc/internal/ot"
	"arm2gc/internal/pool"
	"arm2gc/internal/proto"
)

// DefaultDrainTimeout is how long a shutting-down Server waits for
// in-flight sessions to finish before cancelling them (see
// WithDrainTimeout).
const DefaultDrainTimeout = 10 * time.Second

// Server is the garbler side of the two-party API as a network service:
// it wraps one Engine, registers programs by name, and serves any number
// of concurrent evaluator connections, each carrying any number of
// sequential negotiated sessions. All sessions for one Layout share the
// Engine's single cached netlist, so a Server's steady state performs no
// synthesis at all.
//
// A connection runs a propose/grant handshake per session: the Client
// proposes a program name and options, the Server validates them against
// the registration (unknown programs, non-registered output modes and
// over-budget cycle counts are rejected without dropping the connection)
// and then plays the garbler role of the ordinary wire protocol. A
// mid-protocol failure — or a panic in a caller-supplied callback —
// closes only that connection; the Server and its other connections keep
// running.
type Server struct {
	eng     *Engine
	drain   time.Duration
	timeout time.Duration
	sem     chan struct{}
	logf    func(format string, args ...any)
	tls     *tls.Config
	pool    *pool.Pool // garble-ahead store; nil without WithGarbleAhead

	mu       sync.Mutex
	regs     map[string]*registration
	idle     map[net.Conn]struct{}
	conns    map[net.Conn]struct{} // every live connection, idle or not
	stopping bool

	met serverMetrics
}

// Peer identifies the remote side of a negotiation to an authorization
// policy (see WithAuthorize): its network address, the bearer token its
// proposal carried (if any), and — on a TLS connection — the handshake
// state, whose PeerCertificates hold the verified client chain under
// mutual TLS.
type Peer struct {
	Addr  net.Addr
	Token string
	TLS   *tls.ConnectionState
}

// Certificate returns the peer's verified leaf certificate under mutual
// TLS, nil otherwise — the identity most policies key on (its Subject
// common name or DNS SANs).
func (p Peer) Certificate() *x509.Certificate {
	if p.TLS == nil || len(p.TLS.PeerCertificates) == 0 {
		return nil
	}
	return p.TLS.PeerCertificates[0]
}

// CommonName returns the subject common name of the peer's verified
// certificate, "" when there is none — a convenient identity handle for
// WithAuthorize policies.
func (p Peer) CommonName() string {
	if c := p.Certificate(); c != nil {
		return c.Subject.CommonName
	}
	return ""
}

// registration is one registered program plus the session defaults the
// server resolves client proposals against.
type registration struct {
	prog     *Program
	defaults []Option
	cfg      sessionConfig
	poolKey  pool.Key // the default-options session id the pool fills
}

// ServerOption configures a Server.
type ServerOption func(*Server)

// WithMaxSessions caps how many sessions may garble concurrently
// (default: unlimited). Further proposals block — holding their grant —
// until a slot frees, so clients queue instead of failing.
func WithMaxSessions(n int) ServerOption {
	return func(s *Server) {
		if n > 0 {
			s.sem = make(chan struct{}, n)
		} else {
			s.sem = nil
		}
	}
}

// WithSessionTimeout bounds the wall-clock of each granted session
// (default: unbounded). A client that negotiates a session and then
// stalls would otherwise pin its handler goroutine — and a
// WithMaxSessions slot — until shutdown; with a timeout the session
// aborts, the connection closes, and the slot frees.
func WithSessionTimeout(d time.Duration) ServerOption {
	return func(s *Server) { s.timeout = d }
}

// WithDrainTimeout sets how long Serve waits, after its context is
// cancelled, for in-flight sessions to finish before cancelling them
// (default DefaultDrainTimeout; 0 cancels them immediately). Idle
// connections are closed as soon as shutdown starts regardless.
func WithDrainTimeout(d time.Duration) ServerOption {
	return func(s *Server) { s.drain = d }
}

// WithServerLog routes the Server's per-connection error reporting
// (default: discarded) — e.g. WithServerLog(log.Printf).
func WithServerLog(logf func(format string, args ...any)) ServerOption {
	return func(s *Server) { s.logf = logf }
}

// WithTLSConfig makes Serve speak TLS on every accepted connection
// (default: plaintext). cfg needs at least a server certificate; setting
// ClientAuth to tls.RequireAndVerifyClientCert with a ClientCAs pool
// turns on mutual TLS, and the verified client identity reaches
// WithAuthorize policies through Peer.TLS. Listeners that already produce
// *tls.Conn (tls.NewListener) are served as-is.
func WithTLSConfig(cfg *tls.Config) ServerOption {
	return func(s *Server) { s.tls = cfg }
}

// PoolConfig is the argument WithGarbleAhead takes. It has no fields:
// the pool's depth and byte budget are the constants pool.Depth (2) and
// pool.MemBytes (256 MiB).
//
// Deprecated: pass PoolConfig{}; there is nothing to set.
type PoolConfig struct{}

// WithGarbleAhead turns on the offline/online split: background refill
// workers keep pool.Depth pre-garbled session streams ready for every
// registered program, within pool.MemBytes, and serveOne dequeues a
// ready stream instead of garbling live, so the online phase is OT plus
// frame I/O. Entries are single-use and byte-identical to live garbling
// on the wire; a client proposing non-default options simply misses the
// pool and is garbled live. Refill starts with Serve (or explicitly via
// WarmGarbleAhead); Serve's shutdown stops it and drops the ready
// streams.
func WithGarbleAhead(PoolConfig) ServerOption {
	return func(s *Server) { s.pool = pool.New() }
}

// NewServer creates a Server over an Engine (nil means DefaultEngine).
func NewServer(eng *Engine, opts ...ServerOption) *Server {
	if eng == nil {
		eng = DefaultEngine
	}
	s := &Server{
		eng:   eng,
		drain: DefaultDrainTimeout,
		logf:  func(string, ...any) {},
		regs:  make(map[string]*registration),
		idle:  make(map[net.Conn]struct{}),
		conns: make(map[net.Conn]struct{}),
	}
	s.met.programs = make(map[string]*programCounters)
	for _, o := range opts {
		o(s)
	}
	return s
}

// Register makes a program proposable under name (empty name means
// p.Name). The defaults fix the server-side session configuration —
// including the server's private input via WithGarblerInput — and bound
// what clients may propose: the output mode is pinned, WithMaxCycles is
// the budget ceiling, and the cycle batch is the default for clients that
// do not choose their own. Register validates the options, synthesizes
// the layout's netlist into the Engine cache immediately (so the first
// client does not pay it), and fails on duplicate names.
func (s *Server) Register(name string, p *Program, defaults ...Option) error {
	if p == nil {
		return fmt.Errorf("arm2gc: Register: nil program")
	}
	if name == "" {
		name = p.Name
	}
	if name == "" {
		return fmt.Errorf("arm2gc: Register: program has no name")
	}
	if len(name) > proto.MaxProgramName {
		return fmt.Errorf("arm2gc: Register: name of %d bytes exceeds %d", len(name), proto.MaxProgramName)
	}
	// One session over the defaults validates them and, with garble-ahead
	// on, is the pool's producer: its session id is the key clients
	// negotiating the defaults hit. Like every session it shares the
	// Engine's trace cache, so the first pass over the program, offline or
	// live, pays the classification and every later one replays the trace.
	sess, err := s.eng.Session(p, defaults...)
	if err != nil {
		return err
	}
	reg := &registration{prog: p, defaults: defaults, cfg: sess.cfg}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.regs[name]; dup {
		return fmt.Errorf("arm2gc: Register: program %q already registered", name)
	}
	if s.pool != nil {
		sid, err := sess.sessionID()
		if err != nil {
			return err
		}
		reg.poolKey = pool.Key(sid)
		// A panicking refill (a WithStatsSink callback runs in it) is
		// logged and counted here, then fails the refill like an error.
		producer := func(ctx context.Context) (rec *proto.Recorded, err error) {
			defer func() {
				if r := recover(); r != nil {
					err = s.panicked(fmt.Sprintf("garble-ahead refill of %q", name), r)
				}
			}()
			return sess.record(ctx)
		}
		if err := s.pool.Register(reg.poolKey, name, producer); err != nil {
			return err
		}
	}
	s.regs[name] = reg
	s.met.program(name) // listed in Metrics from registration on, even at zero
	return nil
}

// Retire removes a registered program from service live: proposals for
// name are rejected from now on — with the same wording as an unknown
// program, so retirement leaks nothing — while in-flight sessions finish
// undisturbed. Any garble-ahead entries for it are dropped. The name can
// be registered again afterwards (a new binary under the same name).
func (s *Server) Retire(name string) error {
	s.mu.Lock()
	reg := s.regs[name]
	if reg == nil {
		s.mu.Unlock()
		return fmt.Errorf("arm2gc: Retire: program %q is not registered", name)
	}
	delete(s.regs, name)
	s.mu.Unlock()
	if s.pool != nil {
		s.pool.Retire(reg.poolKey)
	}
	return nil
}

// WarmGarbleAhead synchronously fills the garble-ahead pool to
// pool.Depth streams per registered program before serving — so the very
// first client hits a ready stream. A no-op without WithGarbleAhead.
// Serve's refill workers keep the pool topped up afterwards; calling this
// is optional.
func (s *Server) WarmGarbleAhead(ctx context.Context) error {
	if s.pool == nil {
		return nil
	}
	return s.pool.Fill(ctx)
}

// SessionsServed reports how many sessions completed successfully — an
// observable for connection-reuse and load tests. Metrics returns the
// full counter snapshot.
func (s *Server) SessionsServed() int64 { return s.met.served.Load() }

// Serve accepts evaluator connections on ln until ctx is cancelled,
// running each connection's sessions on its own goroutine. Shutdown is
// graceful: the listener and all idle connections close immediately,
// in-flight sessions get the drain timeout to finish, and Serve returns
// only when every connection handler has. It returns nil on a
// context-driven shutdown and the accept error otherwise. A Server is
// single-use: once Serve has shut down, create a new Server to serve
// again.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if s.pool != nil {
		// Refill runs until shutdown starts (ctx), then Close — after the
		// last handler is done — stops any straggler and drops the ready
		// streams. Sessions draining past ctx fall back to live garbling on
		// an empty (or closed) pool, which is always correct.
		s.pool.Start(ctx)
		defer s.pool.Close()
	}
	// Sessions deliberately outlive ctx: cancelling Serve's ctx starts the
	// graceful drain (listener closed, idle conns dropped), while in-flight
	// sessions run on until the drain timeout, which cancels sessCtx.
	//lint:ignore ctxflow session lifetime is decoupled from Serve's ctx by design — the drain window below, not ctx, ends sessions
	sessCtx, cancelSessions := context.WithCancel(context.Background())
	defer cancelSessions()
	handlersDone := make(chan struct{})
	watcherDone := make(chan struct{})
	go func() {
		defer close(watcherDone)
		select {
		case <-handlersDone:
			return
		case <-ctx.Done():
		}
		_ = ln.Close() // unblocks Accept; the accept loop reports the real error
		s.closeIdle()
		if s.drain > 0 {
			t := time.NewTimer(s.drain)
			defer t.Stop()
			select {
			case <-t.C:
			case <-handlersDone:
			}
		}
		cancelSessions()
		// The session contexts only unblock I/O inside a guarded protocol
		// run. A handler elsewhere — writing a grant to a peer that never
		// reads it, say — would outlive the drain and wedge wg.Wait, so
		// force-close whatever connections remain.
		s.closeAll()
	}()

	var wg sync.WaitGroup
	var acceptErr error
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() == nil {
				acceptErr = err
			}
			break
		}
		wrapped := s.wrap(conn)
		if !s.track(wrapped) {
			_ = wrapped.Close() // shutdown won the race with this accept
			continue
		}
		s.met.connsAccepted.Add(1)
		s.met.connsActive.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer s.met.connsActive.Add(-1)
			defer s.untrack(wrapped)
			s.handle(sessCtx, wrapped)
		}()
	}
	wg.Wait()
	close(handlersDone)
	<-watcherDone
	return acceptErr
}

// wrap layers the wire-byte counters and, when configured, TLS over an
// accepted connection. The counters sit under TLS, so BytesRead/Written
// report genuine wire traffic (ciphertext), not plaintext. (When the
// listener itself already produced *tls.Conn, the counter necessarily
// sits above it and counts plaintext instead.)
func (s *Server) wrap(conn net.Conn) net.Conn {
	wrapped := net.Conn(&countedConn{Conn: conn, m: &s.met})
	if s.tls != nil {
		if _, already := conn.(*tls.Conn); !already {
			wrapped = tls.Server(wrapped, s.tls)
		}
	}
	return wrapped
}

// track adds a live connection to the shutdown set; it reports false once
// shutdown has started (the caller must close the connection itself).
func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopping {
		return false
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.conns, conn)
}

// rejection is a proposal verdict that keeps the connection alive;
// program is set when the proposal named a registered program, for the
// per-program rejection counter.
type rejection struct {
	reason  string
	program string
}

func (r *rejection) Error() string { return "proposal rejected: " + r.reason }

// handle runs one connection's propose/grant/garble loop. A panic inside
// it — a WithAuthorize or WithStatsSink callback, say — costs this
// connection only: it is logged and counted, and the deferred close ends
// the connection while Serve and every other connection run on.
//
// The connection's OT state lives here and dies with the handler: at most
// one epoch of base OTs per registered program, which the program's
// sessions on the connection extend.
func (s *Server) handle(ctx context.Context, conn net.Conn) {
	defer conn.Close()
	defer func() {
		if r := recover(); r != nil {
			_ = s.panicked(fmt.Sprintf("connection from %v", conn.RemoteAddr()), r)
		}
	}()
	ots := make(map[string]*proto.OTState)
	for {
		if !s.markIdle(conn) {
			return // shutting down
		}
		prop, err := proto.ReadProposal(conn)
		s.unmarkIdle(conn)
		if err != nil {
			var ve *proto.VersionError
			if errors.As(err, &ve) {
				// The frame was consumed, so the stream is still aligned:
				// tell the peer why and keep serving proposals this build
				// does understand.
				s.met.negotiationFailures.Add(1)
				if proto.WriteReject(conn, ve.Error()) != nil {
					return
				}
				continue
			}
			return // clean EOF, shutdown close, or a broken peer — this conn only
		}
		err = s.serveOne(ctx, conn, prop, ots)
		var rej *rejection
		if errors.As(err, &rej) {
			if prop.Setup {
				// A declined set-up is no refused session: the client runs
				// the base OTs in its first session instead, or, refused for
				// holding them already, extends the ones it holds.
				if proto.WriteReject(conn, rej.reason) != nil {
					return
				}
				continue
			}
			s.met.rejected.Add(1)
			if rej.program != "" {
				s.met.program(rej.program).rejected.Add(1)
			}
			if proto.WriteReject(conn, rej.reason) != nil {
				return
			}
			continue // a rejected proposal does not cost the connection
		}
		if err != nil {
			what := "OT set-up"
			if !prop.Setup {
				what = "session"
				s.met.failed.Add(1)
			}
			s.logf("arm2gc: %s %q from %v: %v", what, prop.Program, conn.RemoteAddr(), err)
			return // mid-protocol failure: the stream position is unknown
		}
	}
}

// panicked reports a panic recovered at a per-connection or refill
// boundary: it logs the value with the panicking goroutine's stack (call
// it from the deferred recover, before the stack unwinds), counts it in
// SessionPanics, and returns it as an error.
func (s *Server) panicked(where string, r any) error {
	s.met.panics.Add(1)
	s.logf("arm2gc: panic in %s: %v\n%s", where, r, debug.Stack())
	return fmt.Errorf("arm2gc: panic in %s: %v", where, r)
}

// peerOf assembles the authorization identity of a proposing connection.
func peerOf(conn net.Conn, token string) Peer {
	p := Peer{Addr: conn.RemoteAddr(), Token: token}
	// Two layerings reach here: WithTLSConfig puts tls.Server outermost
	// (over the byte counter); a listener that already produced *tls.Conn
	// ends up inside the counter instead — look through it.
	if cc, ok := conn.(*countedConn); ok {
		conn = cc.Conn
	}
	if tc, ok := conn.(*tls.Conn); ok {
		// The proposal has been read, so the handshake has completed and
		// the state — including any verified client chain — is final.
		st := tc.ConnectionState()
		p.TLS = &st
	}
	return p
}

// notAvailable is the uniform rejection for unknown programs and failed
// bearer-token checks: the two cases must be indistinguishable to the
// peer, or an unauthenticated client could enumerate the registered
// catalog by comparing rejection texts. (WithAuthorize callback errors
// are sent verbatim — what a policy reveals is the operator's choice.)
func notAvailable(program string) *rejection {
	return &rejection{reason: proto.NotAvailable(program)}
}

// authorize applies the registration's admission policy to a proposal:
// the bearer-token check first, then the WithAuthorize callback. A nil
// error admits; anything else becomes a rejection upstream.
func (r *registration) authorize(peer Peer, program string) error {
	if r.cfg.authToken != "" &&
		subtle.ConstantTimeCompare([]byte(peer.Token), []byte(r.cfg.authToken)) != 1 {
		return notAvailable(program)
	}
	if r.cfg.authorize != nil {
		if err := r.cfg.authorize(peer, program); err != nil {
			return err
		}
	}
	return nil
}

// serveOne negotiates and garbles a single session, or answers an OT
// set-up, over the connection's OT state for the proposed program.
func (s *Server) serveOne(ctx context.Context, conn net.Conn, prop proto.Proposal, ots map[string]*proto.OTState) error {
	s.mu.Lock()
	reg := s.regs[prop.Program]
	s.mu.Unlock()
	if reg == nil {
		// Same wording as a failed token check — see notAvailable.
		return notAvailable(prop.Program)
	}
	// Admission policy runs before option resolution, session lookup and
	// any cryptography: an unauthorized peer learns only the rejection.
	if err := reg.authorize(peerOf(conn, prop.Auth), prop.Program); err != nil {
		var rej *rejection
		if errors.As(err, &rej) {
			rej.program = prop.Program
			return rej
		}
		return &rejection{reason: err.Error(), program: prop.Program}
	}
	opts, grant, err := reg.resolve(prop)
	if err != nil {
		return err
	}
	st := ots[prop.Program] // bounded by the registered programs
	if st == nil {
		st = new(proto.OTState)
		ots[prop.Program] = st
	}
	if prop.Setup {
		if st.Held() != (ot.Epoch{}) {
			// A Client sets up once per program and connection; another
			// set-up would buy a peer 128 base OTs per proposal for free.
			return &rejection{program: prop.Program,
				reason: fmt.Sprintf("OT set-up for %q refused: this connection already holds its base OTs", prop.Program)}
		}
		return s.serveSetup(ctx, conn, grant, st)
	}
	sess, err := s.eng.Session(reg.prog, opts...)
	if err != nil {
		return err
	}
	if grant.SessionID, err = sess.sessionID(); err != nil {
		return err
	}
	// The grant echoes the proposed OT epoch when this connection holds it
	// and names a fresh one otherwise.
	if grant.Epoch, err = st.Grant(prop.Epoch); err != nil {
		return err
	}
	release, err := s.acquireSlot(ctx)
	if err != nil {
		return err
	}
	defer release()
	// Garble-ahead: dequeue a pre-garbled stream for the session id the
	// grant just pinned. A client that proposed non-default options lands
	// on a different id than the pool fills — a miss, served live. The
	// dequeue sits after the session slot is acquired so an entry is never
	// burned on a session that queues past shutdown.
	var rec *proto.Recorded
	if s.pool != nil {
		if rec = s.pool.Get(pool.Key(grant.SessionID)); rec != nil {
			s.met.poolHits.Add(1)
		} else {
			s.met.poolMisses.Add(1)
		}
	}
	if err := proto.WriteGrant(conn, grant); err != nil {
		return err
	}
	runCtx, cancel := s.runContext(ctx)
	defer cancel()
	s.met.active.Add(1)
	// Deferred so the gauge cannot leak on any exit path — error returns
	// below and panics unwinding through the protocol stack alike.
	defer s.met.active.Add(-1)
	var info *RunInfo
	if rec != nil {
		info, err = sess.garbleRecorded(runCtx, conn, rec, st)
	} else {
		info, err = sess.garble(runCtx, conn, nil, st)
	}
	if err != nil {
		return err
	}
	if grant.Epoch == prop.Epoch {
		s.met.otReuses.Add(1)
	} else {
		s.met.otBaseRuns.Add(1)
	}
	s.met.served.Add(1)
	s.met.program(prop.Program).served.Add(1)
	s.met.tableFrames.Add(int64(info.TableFrames))
	s.met.cycles.Add(int64(info.Cycles))
	s.met.garbledTables.Add(int64(info.GarbledTables))
	return nil
}

// serveSetup answers an OT set-up for the program whose OT state st is:
// a grant naming a fresh epoch, then the base OTs under it. It holds a
// session slot while it runs but counts as no session.
func (s *Server) serveSetup(ctx context.Context, conn net.Conn, grant proto.Grant, st *proto.OTState) error {
	var err error
	if grant.Epoch, err = st.Grant(ot.Epoch{}); err != nil {
		return err
	}
	release, err := s.acquireSlot(ctx)
	if err != nil {
		return err
	}
	defer release()
	if err := proto.WriteGrant(conn, grant); err != nil {
		return err
	}
	runCtx, cancel := s.runContext(ctx)
	defer cancel()
	if err := proto.ServeSetup(runCtx, conn, st); err != nil {
		return err
	}
	s.met.otBaseRuns.Add(1)
	return nil
}

// acquireSlot takes one of the WithMaxSessions slots, if there is a limit.
func (s *Server) acquireSlot(ctx context.Context) (release func(), err error) {
	if s.sem == nil {
		return func() {}, nil
	}
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// runContext bounds one granted exchange by the WithSessionTimeout limit.
func (s *Server) runContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if s.timeout > 0 {
		return context.WithTimeout(ctx, s.timeout)
	}
	return ctx, func() {}
}

// resolve checks a proposal against the registration and produces the
// resolved option set and grant. The output mode is pinned to the
// registered one, the cycle budget is capped by the registered one (server
// CPU is operator policy), and the cycle batch is the client's choice
// within protocol bounds.
func (r *registration) resolve(prop proto.Proposal) ([]Option, proto.Grant, error) {
	grant := proto.Grant{
		Outputs:    r.cfg.outputs,
		CycleBatch: r.cfg.cycleBatch,
		MaxCycles:  r.cfg.maxCycles,
	}
	if prop.HasOutputs && prop.Outputs != r.cfg.outputs {
		return nil, grant, &rejection{program: prop.Program, reason: fmt.Sprintf(
			"output mode %v not offered (registered mode %v)", prop.Outputs, r.cfg.outputs)}
	}
	if prop.CycleBatch != 0 {
		if prop.CycleBatch < 1 || prop.CycleBatch > proto.MaxCycleBatch {
			return nil, grant, &rejection{program: prop.Program, reason: fmt.Sprintf("cycle batch %d out of range", prop.CycleBatch)}
		}
		grant.CycleBatch = prop.CycleBatch
	}
	if prop.MaxCycles != 0 {
		if prop.MaxCycles > r.cfg.maxCycles {
			return nil, grant, &rejection{program: prop.Program, reason: fmt.Sprintf(
				"cycle budget %d exceeds the registered limit %d", prop.MaxCycles, r.cfg.maxCycles)}
		}
		grant.MaxCycles = prop.MaxCycles
	}
	opts := append(r.defaults[:len(r.defaults):len(r.defaults)],
		WithOutputMode(grant.Outputs),
		WithCycleBatch(grant.CycleBatch),
		WithMaxCycles(grant.MaxCycles))
	return opts, grant, nil
}

// markIdle records that conn is waiting for a proposal, the state in
// which shutdown may close it immediately; it reports false once shutdown
// has started.
func (s *Server) markIdle(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopping {
		return false
	}
	s.idle[conn] = struct{}{}
	return true
}

func (s *Server) unmarkIdle(conn net.Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.idle, conn)
}

// closeIdle starts shutdown: no connection may go idle again, and every
// connection currently between sessions is closed.
func (s *Server) closeIdle() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stopping = true
	for conn := range s.idle {
		_ = conn.Close() // shutdown teardown; handlers report their own errors
	}
}

// closeAll is the shutdown backstop after the drain deadline: every
// connection still alive — whatever its handler is blocked on — is
// closed, so no handler goroutine can outlive Serve.
func (s *Server) closeAll() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stopping = true
	for conn := range s.conns {
		_ = conn.Close() // drain-deadline backstop; nothing left to report to
	}
}
