// Package wire is the one frame format every ARM2GC connection carries,
// in both directions and through the gateway: a type byte, the payload
// length as a little-endian uint32, then the payload. It holds the one
// table of frame types.
//
// A session is one fixed sequence of frames. The evaluator proposes and
// the garbler grants or rejects; after a grant, the garbler sends its
// hello, its input labels, its OT frames interleaved with the
// evaluator's, then the garbled tables, and ends with a decode frame.
// The evaluator answers the hello, sends its OT frames, and ends with an
// outputs frame. Both terminal frames are sent in every output mode
// (empty when that direction has nothing to reveal), so a relay knows
// where every session ends from the frame types alone.
//
// Every read here is refused from its header — wrong type, or a length
// outside what the reader expects — before anything is allocated for the
// payload.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
)

// HeaderLen is the size of a frame header.
const HeaderLen = 5

// Frame types.
const (
	Hello       byte = 0x01 // session id (garbler: plus its public seed); both directions
	AliceLabels byte = 0x02 // the garbler's active input labels
	Tables      byte = 0x03 // one cycle batch of garbled tables
	Decode      byte = 0x04 // output decode bits: the garbler's last frame of a session
	Outputs     byte = 0x05 // output bits: the evaluator's last frame of a session
	OT          byte = 0x06 // one oblivious-transfer message; both directions
	Propose     byte = 0x10 // a session proposal (evaluator)
	Grant       byte = 0x11 // a proposal accepted (garbler)
	Reject      byte = 0x12 // a proposal declined (garbler or gateway)
)

// Header is a frame header as it appears on the wire.
type Header [HeaderLen]byte

// Type returns the frame type.
func (h Header) Type() byte { return h[0] }

// Len returns the announced payload length.
func (h Header) Len() uint32 { return binary.LittleEndian.Uint32(h[1:]) }

// AppendHeader appends the header of a typ frame carrying n payload bytes,
// for a writer that assembles a whole frame in one buffer.
func AppendHeader(b []byte, typ byte, n int) []byte {
	return binary.LittleEndian.AppendUint32(append(b, typ), uint32(n))
}

// Write writes one frame: the header, then the payload.
func Write(w io.Writer, typ byte, payload []byte) error {
	hdr := AppendHeader(make([]byte, 0, HeaderLen), typ, len(payload))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if len(payload) == 0 {
		// Skip the zero-byte write: a reader's ReadFull never issues the
		// matching zero-byte read, and a 0-byte net.Pipe write blocks
		// until *some* read arrives — a deadlock when the peer's next
		// operation is itself a write.
		return nil
	}
	_, err := w.Write(payload)
	return err
}

// ReadHeader reads the next frame header. A stream that ends before its
// first byte returns io.EOF: a clean end between frames.
func ReadHeader(r io.Reader) (Header, error) {
	var h Header
	_, err := io.ReadFull(r, h[:])
	return h, err
}

// Payload reads the payload h announces when h is a typ frame of min to
// max bytes, and refuses it unread otherwise.
func (h Header) Payload(r io.Reader, typ byte, min, max int) ([]byte, error) {
	return h.PayloadInto(nil, r, typ, min, max)
}

// PayloadInto is Payload reading into buf's storage when it has room, so
// a reader of many frames reuses one buffer. It allocates only after the
// header is accepted, and then exactly the announced length.
func (h Header) PayloadInto(buf []byte, r io.Reader, typ byte, min, max int) ([]byte, error) {
	if h.Type() != typ {
		return nil, fmt.Errorf("wire: got frame type %#02x, want %#02x", h.Type(), typ)
	}
	if n := int64(h.Len()); n < int64(min) || n > int64(max) {
		if min == max {
			return nil, fmt.Errorf("wire: frame type %#02x announces %d bytes, want %d", typ, n, min)
		}
		return nil, fmt.Errorf("wire: frame type %#02x announces %d bytes, want %d to %d", typ, n, min, max)
	}
	if n := int(h.Len()); cap(buf) < n {
		buf = make([]byte, n)
	} else {
		buf = buf[:n]
	}
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // the header promised these bytes
		}
		return nil, err
	}
	return buf, nil
}

// Read reads the next frame, which must be a typ frame of min to max
// bytes, and returns its payload.
func Read(r io.Reader, typ byte, min, max int) ([]byte, error) {
	h, err := ReadHeader(r)
	if err != nil {
		return nil, err
	}
	return h.Payload(r, typ, min, max)
}
