package arm2gc

import (
	"bytes"
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"sync"
	"time"

	"arm2gc/internal/proto"
)

// RejectedError is what Client.Evaluate returns when the Server declines
// a proposal (unknown program, an option the registration does not offer,
// an over-budget cycle count, or an authorization failure); check for it
// with errors.As. The connection survives a rejection, so the Client
// remains usable.
type RejectedError = proto.Rejected

// RetryableError is what Client.Evaluate returns when the peer sheds the
// proposal with a Retry-After hint — a fleet gateway refusing load, not a
// policy verdict. After is how long the peer asked this side to back off.
// It wraps the underlying *RejectedError, so errors.As works for both
// types; the connection survives a shed like any other rejection.
// WithRetry(n) makes Evaluate honor the hint itself before surfacing it.
type RetryableError struct {
	After time.Duration
	Err   error
}

func (e *RetryableError) Error() string {
	return fmt.Sprintf("%v (retry after %v)", e.Err, e.After)
}

func (e *RetryableError) Unwrap() error { return e.Err }

// retryDelay is the jittered backoff for one shed attempt: at least half
// the hint, at most 1.5× — spreading a thundering herd of shed clients
// without ignoring the peer's ask.
func retryDelay(after time.Duration) time.Duration {
	//lint:ignore cryptohygiene backoff jitter is not secret material; math/rand spreads the herd fine
	return after/2 + rand.N(after)
}

// sleepCtx sleeps d, returning early with ctx's error when cancelled.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Client is the evaluator side of the two-party API as a service client:
// it holds one connection to a Server and runs any number of sequential
// sessions over it, negotiating each with a propose/grant handshake. The
// program is the public input both parties must know, so the Client
// registers its own copy of every program it evaluates; the negotiation
// cross-checks the session id, turning any program-binary or layout
// disagreement into a clear error before the run starts. Registering a
// program also runs its base OTs with the server, once per connection
// (see Register).
//
// A Client is safe for concurrent use; sessions serialize on the
// connection, and a waiter's context is honored while it queues — a
// cancelled Evaluate never blocks behind another session. After a
// mid-protocol failure the connection state is unknown, so the Client
// marks itself broken and every later call returns the original error —
// dial a fresh Client to continue.
type Client struct {
	conn io.ReadWriter
	eng  *Engine

	// tlsCfg is consumed by Dial before the connection exists; see
	// WithDialTLS.
	tlsCfg *tls.Config

	// sem serializes sessions on the connection. A channel rather than a
	// mutex so a queued Evaluate can abandon the wait when its context
	// ends (the mutex guards only the fast-changing fields below).
	sem chan struct{}

	mu     sync.Mutex
	progs  map[string]*Program
	ots    map[string]*proto.OTState // per registered program, created on first use
	broken error
}

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithClientEngine sets the Engine the Client draws machines from
// (default DefaultEngine). A process playing both roles should pass the
// Server's Engine so both share one cached netlist per layout.
func WithClientEngine(eng *Engine) ClientOption {
	return func(c *Client) {
		if eng != nil {
			c.eng = eng
		}
	}
}

// WithDialTLS makes Dial wrap the TCP connection in TLS with cfg before
// any protocol byte flows (default: plaintext). A nil ServerName is
// filled in from the dialed address, so a config as small as
// &tls.Config{RootCAs: pool} works; add a Certificates entry for mutual
// TLS. The option only affects Dial — NewClient wraps whatever
// connection it is handed.
func WithDialTLS(cfg *tls.Config) ClientOption {
	return func(c *Client) { c.tlsCfg = cfg }
}

// NewClient wraps an established connection to a Server. The Client owns
// conn: Close closes it when it implements io.Closer.
func NewClient(conn io.ReadWriter, opts ...ClientOption) *Client {
	c := &Client{conn: conn, eng: DefaultEngine, progs: make(map[string]*Program),
		ots: make(map[string]*proto.OTState), sem: make(chan struct{}, 1)}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Dial connects to a Server over TCP — TLS when WithDialTLS is given —
// and wraps the connection in a Client. Cancelling ctx aborts the dial
// and the TLS handshake.
func Dial(ctx context.Context, addr string, opts ...ClientOption) (*Client, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	c := NewClient(nil, opts...)
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	if c.tlsCfg != nil {
		cfg := c.tlsCfg.Clone()
		if cfg.ServerName == "" && !cfg.InsecureSkipVerify {
			host, _, err := net.SplitHostPort(addr)
			if err != nil {
				host = addr
			}
			cfg.ServerName = host
		}
		tconn := tls.Client(conn, cfg)
		if err := tconn.HandshakeContext(ctx); err != nil {
			_ = conn.Close()
			return nil, fmt.Errorf("arm2gc: TLS handshake with %s: %w", addr, err)
		}
		conn = tconn
	}
	c.conn = conn
	return c, nil
}

// DialTLS is Dial with an explicit TLS config — shorthand for
// WithDialTLS. A nil cfg is an error, not a silent plaintext fallback.
func DialTLS(ctx context.Context, addr string, cfg *tls.Config, opts ...ClientOption) (*Client, error) {
	if cfg == nil {
		return nil, fmt.Errorf("arm2gc: DialTLS: nil TLS config")
	}
	return Dial(ctx, addr, append(opts[:len(opts):len(opts)], WithDialTLS(cfg))...)
}

// Register binds the Client's copy of a program to the name it will
// propose under (empty name means p.Name). The binary must match the
// Server's registration bit for bit — the negotiated session id catches
// any divergence.
//
// Register then runs the program's OT set-up with the server over the
// Client's connection: the 128 base OTs, which depend on neither party's
// input, so that every session of the program on this connection — the
// first included — runs only the OT extension. It blocks until the server
// answers; a Client built by NewClient over a connection nobody serves
// yet must be registered once the server runs. A server that declines the
// set-up (it serves the program only against a bearer token, say) leaves
// the program registered, and its first session runs the base OTs
// instead. An error after the set-up started breaks the Client, as a
// failed session does.
func (c *Client) Register(name string, p *Program) error {
	if p == nil {
		return fmt.Errorf("arm2gc: Register: nil program")
	}
	if name == "" {
		name = p.Name
	}
	if name == "" {
		return fmt.Errorf("arm2gc: Register: program has no name")
	}
	c.mu.Lock()
	if _, dup := c.progs[name]; dup {
		c.mu.Unlock()
		return fmt.Errorf("arm2gc: Register: program %q already registered", name)
	}
	c.progs[name] = p
	c.mu.Unlock()
	//lint:ignore ctxflow Register is an API root whose signature carries no context; its one bounded exchange ends with the connection, as Close aborts it
	return c.setupOT(context.Background(), name)
}

// setupOT runs the OT set-up for a registered program (see Register) and
// holds its epoch for the program's sessions.
func (c *Client) setupOT(ctx context.Context, name string) error {
	if err := c.acquire(ctx); err != nil {
		return err
	}
	defer c.release()
	c.mu.Lock()
	skip := c.broken != nil || c.ots == nil
	c.mu.Unlock()
	if skip {
		return nil // a broken or closed Client fails at Evaluate instead
	}
	st := new(proto.OTState)
	err := proto.SetupOT(ctx, c.conn, proto.Proposal{Program: name}, st)
	var rej *RejectedError
	if errors.As(err, &rej) {
		return nil // declined: the connection lives on
	}
	if err != nil {
		return c.fail(fmt.Errorf("arm2gc: OT set-up for %q: %w", name, err))
	}
	c.mu.Lock()
	if c.ots != nil {
		c.ots[name] = st
	}
	c.mu.Unlock()
	return nil
}

// acquire takes the connection for one session, honoring ctx while
// queued behind another session.
func (c *Client) acquire(ctx context.Context) error {
	select {
	case c.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (c *Client) release() { <-c.sem }

// Evaluate negotiates and runs one session over the Client's connection:
// it proposes the named program with the explicitly set options
// (WithOutputMode, WithCycleBatch, WithMaxCycles, plus any WithAuthToken
// bearer token; unset ones take the Server's registered
// defaults), verifies the granted session id against its own program
// copy, and plays the evaluator role contributing the bob input words. It
// returns the server's rejection as *RejectedError, after which the
// connection remains usable for further sessions. Cancelling ctx aborts
// the call at any point — queued behind another session, mid-handshake,
// or mid-run.
func (c *Client) Evaluate(ctx context.Context, name string, bob []uint32, opts ...Option) (*RunInfo, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := c.acquire(ctx); err != nil {
		return nil, err
	}
	defer c.release()
	c.mu.Lock()
	broken, prog, st := c.broken, c.progs[name], c.ots[name]
	if prog != nil && st == nil && c.ots != nil {
		st = new(proto.OTState)
		c.ots[name] = st
	}
	c.mu.Unlock()
	if broken != nil {
		return nil, fmt.Errorf("arm2gc: client connection is broken: %w", broken)
	}
	if prog == nil {
		return nil, fmt.Errorf("arm2gc: program %q not registered on this client", name)
	}
	cfg, err := newSessionConfig(opts)
	if err != nil {
		return nil, err
	}
	// The proposal names the OT epoch this Client holds for the program;
	// the grant says whether the session extends it or runs base OTs.
	prop := proto.Proposal{Program: name, Auth: cfg.authToken, Epoch: st.Held()}
	if cfg.outputsSet {
		prop.HasOutputs = true
		prop.Outputs = cfg.outputs
	}
	if cfg.cycleBatchSet {
		prop.CycleBatch = cfg.cycleBatch
	}
	if cfg.maxCyclesSet {
		prop.MaxCycles = cfg.maxCycles
	}
	var grant proto.Grant
	for attempt := 0; ; attempt++ {
		grant, err = proto.Negotiate(ctx, c.conn, prop)
		if err == nil {
			break
		}
		var rej *RejectedError
		if !errors.As(err, &rej) {
			return nil, c.fail(err)
		}
		// The connection survives a rejection. A Retry-After hint marks
		// it as a transient shed: surface it typed, and — WithRetry —
		// re-propose after a jittered backoff. Retries live entirely
		// here, before any cryptographic material has flowed; once the
		// session runs, no failure is ever replayed.
		if rej.RetryAfter <= 0 {
			return nil, err
		}
		if attempt >= cfg.retries {
			return nil, &RetryableError{After: rej.RetryAfter, Err: err}
		}
		if serr := sleepCtx(ctx, retryDelay(rej.RetryAfter)); serr != nil {
			return nil, serr
		}
	}
	resolved := append(opts[:len(opts):len(opts)],
		WithOutputMode(grant.Outputs),
		WithCycleBatch(grant.CycleBatch),
		WithMaxCycles(grant.MaxCycles))
	sess, err := c.eng.Session(prog, resolved...)
	if err != nil {
		return nil, c.fail(err) // the server expects a session this side won't run
	}
	sid, err := sess.sessionID()
	if err != nil {
		return nil, c.fail(err)
	}
	if !bytes.Equal(sid[:], grant.SessionID[:]) {
		return nil, c.fail(fmt.Errorf("arm2gc: session id mismatch for %q: this client's program binary or layout differs from the server's registration", name))
	}
	if st != nil { // nil once Close has dropped the OT state
		st.Epoch = grant.Epoch
	}
	info, err := sess.evaluate(ctx, c.conn, bob, st)
	if err != nil {
		return nil, c.fail(err)
	}
	return info, nil
}

// fail latches err as the Client's terminal state and closes the
// connection, so the server's handler — possibly already granted and
// waiting for a session this side will never run — unblocks instead of
// pinning a goroutine (and a WithMaxSessions slot) on a dead peer.
func (c *Client) fail(err error) error {
	c.mu.Lock()
	c.broken = err
	c.ots = nil // the connection's OT state goes with it
	c.mu.Unlock()
	if cl, ok := c.conn.(io.Closer); ok {
		_ = cl.Close() // the conn is already condemned; its close error adds nothing
	}
	return err
}

// Close closes the underlying connection when it supports closing; the
// server sees a clean end-of-connection at its next proposal read.
func (c *Client) Close() error {
	c.mu.Lock()
	c.ots = nil
	c.mu.Unlock()
	if cl, ok := c.conn.(io.Closer); ok {
		return cl.Close()
	}
	return nil
}
