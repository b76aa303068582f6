package gateway

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"arm2gc/internal/proto"
)

// The relay is frame-aware without being protocol-aware: it never
// decrypts anything, but it tracks frame boundaries on both directions
// so it knows where one session ends and the next proposal begins. The
// wire mixes two framings — the 5-byte proto frames and the OT layer's
// 4-byte length-prefixed messages — but their first bytes never collide
// at a decision point: proto types are 0x01..0x05 and 0x10..0x12, while
// every OT phase opens with a 65-byte elliptic-curve point whose length
// prefix starts 0x41. One buffered Peek therefore settles each branch.
const (
	// otKappa mirrors the OT layer's security parameter: the base-OT
	// count, which fixes how many messages each OT phase carries.
	otKappa = 128

	// otPointLen is the wire length of an uncompressed P-256 point — the
	// first message of every OT phase in either direction, and the
	// disambiguating first byte (0x41) of its length prefix.
	otPointLen = 65

	// otPrefixLen is the OT layer's little-endian length prefix.
	otPrefixLen = 4

	// otRelayBuf is the size of a link's OT relay buffer: a whole flight
	// of base-OT points or Hamming(512)-wide correction columns (≈ 8.7 KB)
	// goes out in one write, and anything longer streams through in
	// pieces of this size.
	otRelayBuf = 16 << 10
)

// verdict is what the backend relayer reports to the client-side driver
// after forwarding a grant or rejection.
type verdict struct {
	granted bool
	mode    proto.OutputMode
}

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

	ot otRelay // client→backend OT messages, toward whichever link is live
}

// backendLink is one pooled backend connection plus its relayer.
type backendLink struct {
	b  *backend
	nc net.Conn
	br *bufio.Reader

	// verdicts carries one entry per forwarded proposal; it closes when
	// the relayer dies, which is how the driver observes backend death
	// during negotiation.
	verdicts chan verdict
	relayErr error // set before verdicts closes

	ot otRelay // backend→client OT messages; the relayer's alone
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
		_ = l.nc.Close() // teardown; link errors were already reported by the relayers
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
	if err := proto.WriteRawFrame(l.nc, proto.FramePropose, payload); err != nil {
		return false, fmt.Errorf("forwarding proposal: %w", err)
	}
	v, ok := <-l.verdicts
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
	if !v.granted {
		return true, nil // rejection relayed; the connection lives on
	}
	return true, p.relaySession(l, v.mode)
}

// relaySession drives the client→backend half of one granted session:
// the hello ack, the client's OT messages when the session carries
// evaluator input, and the terminal outputs frame when the output mode
// includes the garbler. The backend→client half runs concurrently in
// the link's relayer.
func (p *proxyConn) relaySession(l *backendLink, mode proto.OutputMode) error {
	typ, payload, err := proto.ReadRawFrame(p.cr)
	if err != nil {
		return fmt.Errorf("client hello ack: %w", err)
	}
	if typ != proto.FrameHello {
		return fmt.Errorf("expected hello ack, got frame type %#02x", typ)
	}
	if err := proto.WriteRawFrame(l.nc, typ, payload); err != nil {
		return fmt.Errorf("forwarding hello ack: %w", err)
	}
	first, err := p.cr.Peek(1)
	if err != nil {
		return fmt.Errorf("after hello ack: %w", err)
	}
	if first[0] == otPointLen {
		// OT phase: the client's base-OT point — forwarded at once, the
		// backend's whole phase waits on it — then its kappa extension
		// columns. The interleaved backend→client messages are the
		// relayer's business.
		if err := p.ot.copyMsg(l.nc, p.cr, true); err != nil {
			return fmt.Errorf("client OT point: %w", err)
		}
		if err := p.ot.flush(l.nc); err != nil {
			return fmt.Errorf("client OT point: %w", err)
		}
		for i := 0; i < otKappa; i++ {
			if err := p.ot.copyMsg(l.nc, p.cr, false); err != nil {
				return fmt.Errorf("client OT column %d: %w", i, err)
			}
		}
		if err := p.ot.flush(l.nc); err != nil {
			return fmt.Errorf("client OT columns: %w", err)
		}
	}
	if mode == proto.OutputEvaluatorOnly {
		return nil // the session ends on the backend's decode frame
	}
	typ, payload, err = proto.ReadRawFrame(p.cr)
	if err != nil {
		return fmt.Errorf("client outputs: %w", err)
	}
	if typ != proto.FrameOutputs {
		return fmt.Errorf("expected outputs, got frame type %#02x", typ)
	}
	if err := proto.WriteRawFrame(l.nc, typ, payload); err != nil {
		return fmt.Errorf("forwarding outputs: %w", err)
	}
	return nil
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
		verdicts: make(chan verdict, 1),
	}
	p.links[b.addr] = l
	go l.relay(p)
	return l, nil
}

func (p *proxyConn) dropLink(l *backendLink) {
	_ = l.nc.Close() // the link is already condemned; its close error adds nothing
	delete(p.links, l.b.addr)
}

// errClientWrite marks relayer failures on the client side of the pipe,
// which are terminal for the whole connection.
var errClientWrite = fmt.Errorf("gateway: client write failed")

// relay runs a link's backend→client direction: verdicts, then — per
// granted session — the hello, the garbler labels, the backend's OT
// messages, and the table stream through the decode frame. A session
// whose output mode is garbler-only ends silently on this direction;
// the state machine detects that when the next frame is a verdict again.
func (l *backendLink) relay(p *proxyConn) {
	defer close(l.verdicts)
	l.relayErr = l.relayLoop(p)
}

func (l *backendLink) relayLoop(p *proxyConn) error {
	for {
		typ, payload, err := proto.ReadRawFrame(l.br)
		if err != nil {
			return err // backend gone (or idle link torn down)
		}
		switch typ {
		case proto.FrameReject:
			if err := p.writeClient(func(w io.Writer) error {
				return proto.WriteRawFrame(w, typ, payload)
			}); err != nil {
				return errClientWrite
			}
			l.verdicts <- verdict{granted: false}
		case proto.FrameGrant:
			mode, err := proto.OutputsOfGrant(payload)
			if err != nil {
				return err
			}
			if err := p.writeClient(func(w io.Writer) error {
				return proto.WriteRawFrame(w, typ, payload)
			}); err != nil {
				return errClientWrite
			}
			l.verdicts <- verdict{granted: true, mode: mode}
			if err := l.relayBody(p); err != nil {
				// Mid-session death is terminal for the whole connection,
				// and both the client and the driver may be blocked on
				// reads that will never complete (the client waiting for
				// tables, the driver waiting for the client's next frame).
				// Closing the client conn unwinds them both.
				_ = p.client.Close()
				return err
			}
		default:
			return fmt.Errorf("expected a verdict from backend, got frame type %#02x", typ)
		}
	}
}

// relayBody relays one granted session's backend→client stream up to
// its final frame (or, for a garbler-only session, up to the point
// where the next verdict shows the session is over).
func (l *backendLink) relayBody(p *proxyConn) error {
	if err := l.relayFrame(p, proto.FrameHello); err != nil {
		return err
	}
	if err := l.relayFrame(p, proto.FrameAliceLabels); err != nil {
		return err
	}
	first, err := l.br.Peek(1)
	if err != nil {
		return err
	}
	if first[0] == otPointLen {
		// OT phase: kappa base-OT points, then the label ciphertexts.
		w := clientWriter{p}
		for i := 0; i < otKappa+1; i++ {
			if err := l.ot.copyMsg(w, l.br, i < otKappa); err != nil {
				return fmt.Errorf("backend OT message %d: %w", i, err)
			}
		}
		if err := l.ot.flush(w); err != nil {
			return fmt.Errorf("backend OT messages: %w", err)
		}
	}
	for {
		first, err := l.br.Peek(1)
		if err != nil {
			return err
		}
		switch first[0] {
		case proto.FrameTables:
			if err := l.relayFrame(p, proto.FrameTables); err != nil {
				return err
			}
		case proto.FrameDecode:
			return l.relayFrame(p, proto.FrameDecode)
		case proto.FrameGrant, proto.FrameReject:
			// A garbler-only session ended without a decode frame; the
			// buffered verdict belongs to the next session.
			return nil
		default:
			return fmt.Errorf("unexpected frame type %#02x in session body", first[0])
		}
	}
}

func (l *backendLink) relayFrame(p *proxyConn, want byte) error {
	typ, payload, err := proto.ReadRawFrame(l.br)
	if err != nil {
		return err
	}
	if typ != want {
		return fmt.Errorf("expected frame type %#02x from backend, got %#02x", want, typ)
	}
	if err := p.writeClient(func(w io.Writer) error {
		return proto.WriteRawFrame(w, typ, payload)
	}); err != nil {
		return errClientWrite
	}
	return nil
}

// otRelay forwards OT-framed messages (4-byte LE length + payload) from a
// buffered source through one reusable buffer, so a flight the source has
// already delivered leaves in one write instead of one per message. It
// writes when the buffer is full and before any read that would wait on
// the source — bytes are never held back while the peer is silent — and
// it neither allocates from a length prefix nor reorders a byte.
type otRelay struct {
	buf []byte // nil until the connection's first OT phase
	n   int    // pending bytes in buf
}

// copyMsg takes one message from src. A point message must announce
// exactly otPointLen bytes; the other lengths depend on the program's
// input width, which only the endpoints know, so they stream through
// whatever their size.
func (r *otRelay) copyMsg(dst io.Writer, src *bufio.Reader, point bool) error {
	if r.buf == nil {
		r.buf = make([]byte, otRelayBuf)
	}
	if src.Buffered() < otPrefixLen {
		if err := r.flush(dst); err != nil {
			return err
		}
	}
	hdr, err := src.Peek(otPrefixLen)
	if err != nil {
		return err
	}
	size := binary.LittleEndian.Uint32(hdr)
	if point && size != otPointLen {
		return fmt.Errorf("OT point message announces %d bytes, want %d", size, otPointLen)
	}
	for left := int64(otPrefixLen) + int64(size); left > 0; {
		if r.n == len(r.buf) || (r.n > 0 && src.Buffered() == 0) {
			if err := r.flush(dst); err != nil {
				return err
			}
		}
		k := int(min(left, int64(len(r.buf)-r.n)))
		if b := src.Buffered(); 0 < b && b < k {
			k = b // take what is here; decide about waiting next round
		}
		if _, err := io.ReadFull(src, r.buf[r.n:r.n+k]); err != nil {
			return err
		}
		r.n += k
		left -= int64(k)
	}
	return nil
}

// flush writes the pending bytes.
func (r *otRelay) flush(dst io.Writer) error {
	if r.n == 0 {
		return nil
	}
	_, err := dst.Write(r.buf[:r.n])
	r.n = 0
	return err
}
