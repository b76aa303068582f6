package gateway

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"arm2gc/internal/proto"
	"arm2gc/internal/wire"
)

// The relay knows frames, not the protocol. Every byte after a grant is a
// wire frame, and each direction of a session ends on its own terminal
// frame — the backend's decode frame, the client's outputs frame — so the
// relay checks each header's type against its direction's allowed set,
// streams the payload through one fixed buffer, and stops at the terminal
// frame: the next frame on the connection belongs to the next session.
var (
	verdictFrames = wire.TypeSet(wire.Grant, wire.Reject)
	backendFrames = wire.TypeSet(wire.Hello, wire.AliceLabels, wire.OT, wire.Tables, wire.Decode)
	clientFrames  = wire.TypeSet(wire.Hello, wire.OT, wire.Outputs)
)

// proxyConn is one client connection's relay state. A connection carries
// its sessions one after another, so the goroutine that serves it
// (handle → run) drives each one: it forwards the proposal, relays the
// verdict, and after a grant relays the client's half of the session
// while one goroutine, started for the session and waited for at its
// end, relays the backend's half. One goroutine at a time writes to the
// client.
type proxyConn struct {
	g      *Gateway
	client net.Conn
	cr     *bufio.Reader
	peer   string // client IP, the shedding key

	links map[string]*backendLink

	toClient sink       // where the verdict and the backend's half go
	up       wire.Relay // client→backend frames, toward whichever link is live
}

// backendLink is one pooled backend connection.
type backendLink struct {
	b         *backend
	nc        net.Conn
	br        *bufio.Reader
	toBackend sink       // the client's half's destination
	down      wire.Relay // backend→client frames
}

// fault is a relay failure tagged with the side of the pipe it came from.
// A client's fault costs that client's connection; a backend's also
// ejects the backend.
type fault struct {
	error
	client bool
}

// blame tags a relay half's failure: a failed write already names its
// side, and anything else — a failed read, a hang-up, a frame the
// direction may not send — is the source's.
func blame(err error, client bool) error {
	var f *fault
	if err == nil || errors.As(err, &f) {
		return err
	}
	return &fault{err, client}
}

// sink is one side of the pipe as a relay's destination: it counts the
// bytes that reached that side and blames a failed write on it.
type sink struct {
	w      io.Writer
	client bool
	n      int64
}

func (s *sink) Write(b []byte) (int, error) {
	n, err := s.w.Write(b)
	s.n += int64(n)
	if err != nil {
		err = &fault{err, s.client}
	}
	return n, err
}

// handle relays one client connection's sessions until the client is
// done or the stream desynchronizes.
func (g *Gateway) handle(ctx context.Context, nc net.Conn) {
	peer := ""
	if addr, ok := nc.RemoteAddr().(*net.TCPAddr); ok {
		peer = addr.IP.String()
	} else if host, _, err := net.SplitHostPort(nc.RemoteAddr().String()); err == nil {
		peer = host
	}
	p := &proxyConn{
		g:        g,
		client:   nc,
		cr:       bufio.NewReader(nc),
		peer:     peer,
		links:    make(map[string]*backendLink),
		toClient: sink{w: nc, client: true},
	}
	defer p.close()
	if err := p.run(ctx); err != nil && err != io.EOF && ctx.Err() == nil {
		g.logf("gateway: conn %v: %v", nc.RemoteAddr(), err)
	}
}

func (p *proxyConn) close() {
	_ = p.client.Close()
	for _, l := range p.links {
		p.dropLink(l) // teardown; link errors were already reported by session
	}
}

// run is the driver loop: one iteration per client proposal.
func (p *proxyConn) run(ctx context.Context) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		// The client has not been authorized yet: the typed, bounded read
		// refuses any other frame, or a proposal longer than a well-formed
		// one, before allocating for it.
		payload, err := proto.ReadProposalFrame(p.cr)
		if err != nil {
			return err // clean EOF between sessions, or the client broke
		}
		p.g.met.proposals.Add(1)
		name, err := proto.ProgramOfProposal(payload)
		if err != nil {
			// Reject locally: the frame was consumed, the stream is aligned.
			p.g.met.rejectedLocal.Add(1)
			if err := p.reject("malformed proposal", 0); err != nil {
				return err
			}
			continue
		}
		if !p.g.routable(name) {
			p.g.met.rejectedLocal.Add(1)
			if err := p.reject(proto.NotAvailable(name), 0); err != nil {
				return err
			}
			continue
		}
		if l := p.g.limiter; l != nil {
			if ok, after := l.allow(p.peer); !ok {
				p.g.met.shedRate.Add(1)
				if err := p.reject("shed: per-peer session rate exceeded", after); err != nil {
					return err
				}
				continue
			}
		}
		if err := p.session(ctx, name, payload); err != nil {
			return err
		}
	}
}

// reject answers the pending proposal at the gateway itself; a positive
// hint makes it a shed the client may retry.
func (p *proxyConn) reject(reason string, after time.Duration) error {
	return proto.WriteRejectRetry(p.client, reason, after)
}

// session routes one proposal and relays the resulting session. A
// backend that fails before any byte reached the client costs nothing
// visible: the proposal retries on the next ring node. Past that point a
// failure is terminal for the connection — the stream position is
// unknown, exactly like a direct server failure — and it ejects the
// backend only when the backend is at fault.
func (p *proxyConn) session(ctx context.Context, name string, payload []byte) error {
	tried := make(map[string]bool)
	for {
		b := p.g.route(name, tried)
		if b == nil {
			p.g.met.shedNoBackend.Add(1)
			return p.reject("shed: no backend available for "+name, p.g.cfg.RetryAfter)
		}
		tried[b.addr] = true
		l, err := p.link(ctx, b)
		if err != nil {
			p.g.eject(b, err)
			b.failed.Add(1)
			continue
		}
		b.routed.Add(1)
		b.inflight.Add(1)
		err = p.relayOne(ctx, l, payload)
		b.inflight.Add(-1)
		if err == nil {
			return nil
		}
		p.dropLink(l) // either way the backend's session is dead
		var f *fault
		switch {
		case ctx.Err() != nil:
			return ctx.Err() // shutdown closed the pipe; nobody is at fault
		case errors.As(err, &f) && f.client:
			p.g.met.clientFaults.Add(1)
			return fmt.Errorf("client mid-session: %w", err)
		}
		p.g.eject(b, err)
		b.failed.Add(1)
		if p.toClient.n == 0 {
			continue // nothing reached the client; retry elsewhere
		}
		return fmt.Errorf("backend %s mid-session: %w", b.addr, err)
	}
}

// relayOne forwards one proposal to a linked backend, relays its verdict
// and, after a grant, the session; p.toClient counts what reached the
// client meanwhile.
func (p *proxyConn) relayOne(ctx context.Context, l *backendLink, payload []byte) error {
	// Shutdown closes the backend side as well as the client side, which
	// Serve closes, so a stalled backend cannot hold the connection.
	defer context.AfterFunc(ctx, func() { _ = l.nc.Close() })()
	p.toClient.n = 0
	if err := wire.Write(&l.toBackend, wire.Propose, payload); err != nil {
		return fmt.Errorf("forwarding proposal: %w", err)
	}
	typ, err := l.down.Frame(&p.toClient, l.br, verdictFrames)
	if err == nil {
		err = l.down.Flush(&p.toClient)
	}
	if err != nil {
		return blame(err, false)
	}
	if typ != wire.Grant {
		return nil // a rejection relayed; the connection lives on
	}

	// The session: the backend's half on its own goroutine, the client's
	// half here. The half that fails first is the cause; it closes the
	// other half's source, whose failure then is only the close it
	// provoked, so neither half waits on a peer that will not send again.
	var (
		first sync.Once
		cause error
	)
	fail := func(err error, src net.Conn) {
		first.Do(func() {
			cause = err
			_ = src.Close()
		})
	}
	down := make(chan struct{})
	go func() {
		defer close(down)
		if err := l.down.Until(&p.toClient, l.br, backendFrames, wire.Decode); err != nil {
			fail(blame(err, false), p.client)
		}
	}()
	if err := p.up.Until(&l.toBackend, p.cr, clientFrames, wire.Outputs); err != nil {
		fail(blame(fmt.Errorf("client frames: %w", err), true), l.nc)
	}
	<-down
	return cause
}

// link returns (dialing on first use) the pooled connection to a backend.
func (p *proxyConn) link(ctx context.Context, b *backend) (*backendLink, error) {
	if l := p.links[b.addr]; l != nil {
		return l, nil
	}
	nc, err := p.g.dial(ctx, b.addr)
	if err != nil {
		return nil, fmt.Errorf("dialing %s: %w", b.addr, err)
	}
	l := &backendLink{b: b, nc: nc, br: bufio.NewReader(nc), toBackend: sink{w: nc}}
	p.links[b.addr] = l
	return l, nil
}

func (p *proxyConn) dropLink(l *backendLink) {
	_ = l.nc.Close() // the link is already condemned; its close error adds nothing
	delete(p.links, l.b.addr)
}
