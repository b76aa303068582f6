package wire

import (
	"bufio"
	"fmt"
	"io"
)

// relayBuf is the size of a Relay's buffer: a frame of base-OT points or
// Hamming(512)-wide correction columns (8.2 KB) goes out in one write, and
// anything longer streams through in pieces of this size.
const relayBuf = 16 << 10

// Types is a set of frame types.
type Types [256]bool

// TypeSet returns the set of the given frame types.
func TypeSet(types ...byte) *Types {
	var s Types
	for _, t := range types {
		s[t] = true
	}
	return &s
}

// Relay forwards frames from a buffered source by header alone, through
// one reusable buffer, so frames the source has already delivered leave
// in one write instead of one per frame. It writes when the buffer is full
// and before any read that would wait on the source — bytes are never held
// back while the peer is silent — and it sizes nothing from a header: a
// frame of any announced length streams through the same buffer,
// unreordered. The zero value is ready to use.
type Relay struct {
	buf []byte // nil until the first frame
	n   int    // pending bytes in buf
}

// Frame forwards the next frame from src to dst and returns its type. A
// type outside allowed is refused from the header, before any of the
// frame is forwarded.
func (r *Relay) Frame(dst io.Writer, src *bufio.Reader, allowed *Types) (byte, error) {
	if r.buf == nil {
		r.buf = make([]byte, relayBuf)
	}
	if src.Buffered() < HeaderLen || len(r.buf)-r.n < HeaderLen {
		if err := r.Flush(dst); err != nil {
			return 0, err
		}
	}
	if _, err := io.ReadFull(src, r.buf[r.n:r.n+HeaderLen]); err != nil {
		return 0, err
	}
	h := Header(r.buf[r.n:])
	if !allowed[h.Type()] {
		return 0, fmt.Errorf("wire: frame type %#02x not allowed here", h.Type())
	}
	r.n += HeaderLen
	for left := int64(h.Len()); left > 0; {
		if r.n == len(r.buf) || (r.n > 0 && src.Buffered() == 0) {
			if err := r.Flush(dst); err != nil {
				return 0, err
			}
		}
		k := int(min(left, int64(len(r.buf)-r.n)))
		if b := src.Buffered(); 0 < b && b < k {
			k = b // take what is here; decide about waiting next round
		}
		if _, err := io.ReadFull(src, r.buf[r.n:r.n+k]); err != nil {
			return 0, err
		}
		r.n += k
		left -= int64(k)
	}
	return h.Type(), nil
}

// Until forwards frames from src to dst through the first frame of type
// end, then flushes: what follows on src is not this exchange's.
func (r *Relay) Until(dst io.Writer, src *bufio.Reader, allowed *Types, end byte) error {
	for {
		typ, err := r.Frame(dst, src, allowed)
		if err != nil {
			return err
		}
		if typ == end {
			return r.Flush(dst)
		}
	}
}

// Flush writes the pending bytes.
func (r *Relay) Flush(dst io.Writer) error {
	if r.n == 0 {
		return nil
	}
	_, err := dst.Write(r.buf[:r.n])
	r.n = 0
	return err
}
