package gateway

import (
	"bufio"
	"context"
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

// proxyConn is one client connection's relay state. The driver goroutine
// (handle → run) owns the client→backend direction; each backendLink
// runs a relayer goroutine for its backend→client direction. Only one
// backend streams at a time — sessions are sequential per connection —
// but writes to the client still go through one mutex so a shed verdict
// injected by the driver can never tear a frame.
type proxyConn struct {
	g      *Gateway
	client net.Conn
	cr     *bufio.Reader
	peer   string // client IP, the shedding key

	wmu   sync.Mutex
	links map[string]*backendLink

	up wire.Relay // client→backend frames, toward whichever link is live
}

// backendLink is one pooled backend connection plus its relayer.
type backendLink struct {
	b  *backend
	nc net.Conn
	br *bufio.Reader

	// owed carries one token per forwarded proposal: the relayer reads a
	// verdict only when one is owed, so bytes a backend sends unasked never
	// reach the client. run closes it when it is done with the link.
	owed chan struct{}
	// verdicts carries the owed verdict, true for a grant; it closes when
	// the relayer dies, which is how run observes backend death during
	// negotiation.
	verdicts chan bool
	relayErr error // set before verdicts closes

	down wire.Relay // backend→client frames; the relayer's alone
}

func (p *proxyConn) writeClient(fn func(io.Writer) error) error {
	p.wmu.Lock()
	defer p.wmu.Unlock()
	return fn(p.client)
}

// clientWriter is the client side of the pipe as an io.Writer: every
// Write holds the client write lock, and a failure is errClientWrite.
type clientWriter struct{ p *proxyConn }

func (c clientWriter) Write(b []byte) (n int, err error) {
	if c.p.writeClient(func(w io.Writer) error { n, err = w.Write(b); return err }) != nil {
		err = errClientWrite
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
		g:      g,
		client: nc,
		cr:     bufio.NewReader(nc),
		peer:   peer,
		links:  make(map[string]*backendLink),
	}
	defer p.close()
	if err := p.run(ctx); err != nil && err != io.EOF && ctx.Err() == nil {
		g.logf("gateway: conn %v: %v", nc.RemoteAddr(), err)
	}
}

func (p *proxyConn) close() {
	_ = p.client.Close()
	for _, l := range p.links {
		p.dropLink(l) // teardown; link errors were already reported by the relayers
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
			if err := p.reject(fmt.Sprintf("program %q is not available to this peer", name), 0); err != nil {
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
	return p.writeClient(func(w io.Writer) error {
		return proto.WriteRejectRetry(w, reason, after)
	})
}

// session routes one proposal and relays the resulting session. A
// backend that fails before its verdict costs nothing visible: the
// proposal retries on the next ring node. Once any bytes of a granted
// session have flowed, a failure is terminal for the connection — the
// stream position is unknown, exactly like a direct server failure.
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
		done, err := p.relayOne(ctx, l, payload)
		b.inflight.Add(-1)
		if err != nil {
			p.dropLink(l)
			p.g.eject(b, err)
			b.failed.Add(1)
			if !done {
				continue // nothing reached the client; retry elsewhere
			}
			return fmt.Errorf("backend %s mid-session: %w", b.addr, err)
		}
		return nil
	}
}

// relayOne forwards one proposal to a linked backend and relays the
// session. done reports whether any backend bytes reached the client —
// the point past which a failure can no longer be retried transparently.
func (p *proxyConn) relayOne(ctx context.Context, l *backendLink, payload []byte) (done bool, err error) {
	l.owed <- struct{}{}
	if err := wire.Write(l.nc, wire.Propose, payload); err != nil {
		return false, fmt.Errorf("forwarding proposal: %w", err)
	}
	granted, ok := <-l.verdicts
	if !ok {
		// The relayer died before a verdict crossed. If it failed while
		// writing to the client, the connection is beyond saving; a pure
		// backend-side death is retryable.
		err := l.relayErr
		if err == nil {
			err = io.ErrUnexpectedEOF
		}
		return err == errClientWrite, err
	}
	if !granted {
		return true, nil // rejection relayed; the connection lives on
	}
	// The client's half of the session; the backend's half runs
	// concurrently in the link's relayer.
	if err := p.up.Until(l.nc, p.cr, clientFrames, wire.Outputs); err != nil {
		return true, fmt.Errorf("client frames: %w", err)
	}
	return true, nil
}

// link returns (dialing on first use) the pooled connection to a
// backend, with its relayer running.
func (p *proxyConn) link(ctx context.Context, b *backend) (*backendLink, error) {
	if l := p.links[b.addr]; l != nil {
		return l, nil
	}
	nc, err := p.g.dial(ctx, b.addr)
	if err != nil {
		return nil, fmt.Errorf("dialing %s: %w", b.addr, err)
	}
	l := &backendLink{
		b:        b,
		nc:       nc,
		br:       bufio.NewReader(nc),
		owed:     make(chan struct{}, 1),
		verdicts: make(chan bool, 1),
	}
	p.links[b.addr] = l
	go l.relay(p)
	return l, nil
}

func (p *proxyConn) dropLink(l *backendLink) {
	close(l.owed)
	_ = l.nc.Close() // the link is already condemned; its close error adds nothing
	delete(p.links, l.b.addr)
}

// errClientWrite marks relayer failures on the client side of the pipe,
// which are terminal for the whole connection.
var errClientWrite = fmt.Errorf("gateway: client write failed")

// relay runs a link's backend→client direction: the verdict owed for
// each forwarded proposal and, after a grant, the session's frames
// through the decode frame.
func (l *backendLink) relay(p *proxyConn) {
	defer close(l.verdicts)
	l.relayErr = l.relayLoop(p)
}

func (l *backendLink) relayLoop(p *proxyConn) error {
	w := clientWriter{p}
	for range l.owed {
		typ, err := l.down.Frame(w, l.br, verdictFrames)
		if err == nil {
			err = l.down.Flush(w)
		}
		if err != nil {
			return err // backend gone (or idle link torn down)
		}
		l.verdicts <- typ == wire.Grant
		if typ != wire.Grant {
			continue
		}
		if err := l.down.Until(w, l.br, backendFrames, wire.Decode); err != nil {
			// Mid-session death is terminal for the whole connection, and
			// both the client and run may be blocked on reads that will
			// never complete (the client waiting for tables, run waiting
			// for the client's next frame). Closing the client conn
			// unwinds them both.
			_ = p.client.Close()
			return err
		}
	}
	return nil // run is done with the link
}
