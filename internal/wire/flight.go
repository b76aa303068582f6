package wire

import "io"

// flightBytes is the fill at which a Flight writes its pending frames. It
// is small enough that a peer reading a stream of small frames (Hamming's
// ~300 B table frames) lags the writer by only a few of them, and large
// enough that such a stream leaves in a few dozen writes instead of one
// per frame. Larger flights let an evaluator fall further behind its
// garbler, and none measured faster end to end.
const flightBytes = 2 << 10

// Flight is one party's side of a connection during a session. It follows
// Relay's rule on the write side: frames are appended whole to one buffer,
// and the buffer leaves in one write at a frame boundary once it holds
// flightBytes, before any read (a party that waits on its peer has sent
// everything first) and on Flush. A frame of flightBytes or more that
// finds the buffer empty is written as it is, without a copy. Write
// boundaries are not part of the wire contract: every byte leaves in
// order, and only the number of writes changes.
//
// Each Write must carry whole frames, as wire.Write and the frame
// builders produce them. A Flight never issues a zero-byte write.
type Flight struct {
	rw  io.ReadWriter
	buf []byte // pending frames
}

// NewFlight returns a Flight over rw.
func NewFlight(rw io.ReadWriter) *Flight { return &Flight{rw: rw} }

// Write queues the frames in p, writing the buffer once it reaches
// flightBytes.
func (f *Flight) Write(p []byte) (int, error) {
	if len(f.buf) == 0 && len(p) >= flightBytes {
		return f.rw.Write(p)
	}
	f.buf = append(f.buf, p...)
	if len(f.buf) >= flightBytes {
		if err := f.Flush(); err != nil {
			return 0, err
		}
	}
	return len(p), nil
}

// Read writes the pending frames, then reads from the connection.
func (f *Flight) Read(p []byte) (int, error) {
	if err := f.Flush(); err != nil {
		return 0, err
	}
	return f.rw.Read(p)
}

// Flush writes the pending frames, if any, in one write.
func (f *Flight) Flush() error {
	if len(f.buf) == 0 {
		return nil
	}
	_, err := f.rw.Write(f.buf)
	f.buf = f.buf[:0]
	return err
}
