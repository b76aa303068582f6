package proto

import (
	"fmt"
	"io"
	"time"

	"arm2gc/internal/core"
	"arm2gc/internal/gc"
	"arm2gc/internal/wire"
)

// aheadFrame is one frame pulled off the wire by the read-ahead
// goroutine, type intact so the consumer's typed reads still verify.
type aheadFrame struct {
	typ     byte
	payload []byte
	err     error
}

// frameReader is the evaluator's source for what the garbler sends after
// the OT phase: table frames, then the decode frame that ends every
// session. Each frame is checked against its header before anything is
// allocated for it. A replaying evaluator knows every table frame's exact
// size from its trace — 32 bytes per table of each cycle the frame covers —
// and a live one bounds it by one table per non-XOR gate per cycle of its
// batch; the decode frame is read at its exact length.
//
// With cfg.ReadAhead off, frames are read synchronously. With it on, a
// goroutine pulls them off the connection ahead of the cycle loop, so
// table frames queue up while the evaluator is still crunching labels. A
// live evaluator cannot know the stream length in advance (the halt flag
// resolves cycle by cycle), but it does not need to: the goroutine stops
// after the decode frame, the garbler's last of the session, and the
// consumer's own typed read picks that up after halt detection.
//
// Read-ahead requires a deadline-capable connection (every net.Conn and
// net.Pipe qualifies): on an error path the goroutine may be parked in a
// blocking read, and shutdown unwedges it by expiring the deadline.
type frameReader struct {
	conn      io.ReadWriter
	maxTables int             // a live table frame's bound, in bytes
	decodeLen int             // the decode frame's exact length
	ch        chan aheadFrame // nil: synchronous mode

	// Under replay, table frames are read at their exact sizes: frame k
	// covers trace cycles nextCycle .. nextCycle+batch-1 (fewer at the
	// end). Only the goroutine reading the connection advances nextCycle.
	trace     *core.Trace
	batch     int
	nextCycle int
}

// newFrameReader starts the read-ahead goroutine when cfg allows it. The
// caller must call shutdown on every path once done reading.
func newFrameReader(conn io.ReadWriter, cfg Config, decodeLen int) *frameReader {
	fr := &frameReader{
		conn:      conn,
		maxTables: cfg.batch() * cfg.Circuit.Stats().NonXOR * gc.TableBytes,
		decodeLen: decodeLen,
		trace:     cfg.Trace,
		batch:     cfg.batch(),
		nextCycle: 1,
	}
	if cfg.ReadAhead <= 0 {
		return fr
	}
	if _, ok := conn.(deadliner); !ok {
		return fr
	}
	fr.ch = make(chan aheadFrame, cfg.ReadAhead)
	go func() {
		defer close(fr.ch)
		for {
			f := fr.next()
			fr.ch <- f
			if f.err != nil || f.typ != msgTables {
				return
			}
		}
	}()
	return fr
}

// next reads the next frame off the connection: a table frame at its
// exact size (replay) or within its bound (live), or the decode frame at
// its exact length.
func (fr *frameReader) next() aheadFrame {
	h, err := wire.ReadHeader(fr.conn)
	if err != nil {
		return aheadFrame{err: err}
	}
	f := aheadFrame{typ: h.Type()}
	switch {
	case f.typ == msgDecode:
		f.payload, f.err = h.Payload(fr.conn, msgDecode, fr.decodeLen, fr.decodeLen)
	case f.typ != msgTables || fr.trace == nil:
		f.payload, f.err = h.Payload(fr.conn, msgTables, 0, fr.maxTables)
	case fr.nextCycle > fr.trace.NumCycles():
		f.err = fmt.Errorf("proto: table frame after the trace's last cycle %d", fr.trace.NumCycles())
	default:
		n := fr.replayFrameBytes()
		f.payload, f.err = h.Payload(fr.conn, msgTables, n, n)
	}
	return f
}

// replayFrameBytes is the exact size of the next table frame under replay,
// and moves past the cycles it covers.
func (fr *frameReader) replayFrameBytes() int {
	last := min(fr.nextCycle+fr.batch-1, fr.trace.NumCycles())
	n := 0
	for cyc := fr.nextCycle; cyc <= last; cyc++ {
		n += fr.trace.Cycle(cyc).NumTables() * gc.TableBytes
	}
	fr.nextCycle = last + 1
	return n
}

// read returns the next frame, requiring wantType — from the read-ahead
// buffer when the goroutine runs, directly from the connection otherwise.
// The goroutine stops only after the decode frame or an error, the last
// frame the evaluator reads either way.
func (fr *frameReader) read(wantType byte) ([]byte, error) {
	var f aheadFrame
	if fr.ch != nil {
		f = <-fr.ch
	} else {
		f = fr.next()
	}
	if f.err != nil {
		return nil, f.err
	}
	if f.typ != wantType {
		return nil, fmt.Errorf("proto: got message type %d, want %d", f.typ, wantType)
	}
	return f.payload, nil
}

// shutdown joins the read-ahead goroutine. On a completed run it has
// already exited after the decode frame; after a mid-stream failure it may
// be blocked in a read on a connection that is not going to deliver, so
// pending I/O is expired first. The deadline is cleared afterwards — on
// the failure paths the caller abandons the connection anyway, and on the
// success path a cleared deadline leaves a reusable conn exactly as it
// found it.
func (fr *frameReader) shutdown() {
	if fr.ch == nil {
		return
	}
	d := fr.conn.(deadliner)           // checked at construction
	_ = d.SetDeadline(time.Unix(1, 0)) // best-effort expiry; the drain below tolerates a slow reader
	for range fr.ch {
	}
	_ = d.SetDeadline(time.Time{})
}
