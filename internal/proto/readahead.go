package proto

import (
	"io"
	"time"
)

// aheadFrame is one frame pulled off the wire by the read-ahead
// goroutine, type intact so the consumer's typed reads still verify.
type aheadFrame struct {
	typ     byte
	payload []byte
	err     error
}

// frameReader is the evaluator's frame source. With cfg.ReadAhead off it
// is a plain synchronous wrapper over readFrame. With it on, a goroutine
// pulls frames off the connection ahead of the cycle loop, so table
// frames queue up while the evaluator is still crunching labels — the
// typed-frame peeking the halt edge needs: the evaluator cannot know the
// stream length in advance (the halt flag resolves cycle by cycle), so
// the goroutine peeks at each frame's type and parks the first
// non-msgTables frame (the decode frame, in practice) in the buffer,
// where the consumer's own typed read picks it up after halt detection.
//
// Two modes bound the goroutine's appetite:
//   - replaying (cfg.Trace set): the trace pins the exact table-frame
//     count, so the goroutine reads exactly that many frames and exits —
//     any output mode works;
//   - classifying: the goroutine reads until the first non-table frame.
//     In OutputGarblerOnly mode no such sentinel follows the stream (the
//     next frame belongs to the *evaluator*), so read-ahead degrades to
//     synchronous reads rather than swallow a frame it must not touch.
//
// Read-ahead also requires a deadline-capable connection (every net.Conn
// and net.Pipe qualifies): on an error path the goroutine may be parked
// in a blocking read, and shutdown unwedges it by expiring the deadline.
type frameReader struct {
	conn io.ReadWriter
	ch   chan aheadFrame // nil: synchronous mode
}

// newFrameReader starts the read-ahead goroutine when cfg allows it. The
// caller must call shutdown on every path once done reading.
func newFrameReader(conn io.ReadWriter, cfg Config) *frameReader {
	fr := &frameReader{conn: conn}
	depth := cfg.ReadAhead
	if depth <= 0 {
		return fr
	}
	if _, ok := conn.(deadliner); !ok {
		return fr
	}
	limit := -1
	if cfg.Trace != nil {
		limit = countTraceFrames(cfg)
	} else if cfg.Outputs == OutputGarblerOnly {
		return fr // no trailing garbler frame to park on; stay synchronous
	}
	fr.ch = make(chan aheadFrame, depth)
	go func() {
		defer close(fr.ch)
		for n := 0; limit < 0 || n < limit; n++ {
			typ, payload, err := readAnyFrame(conn)
			fr.ch <- aheadFrame{typ, payload, err}
			if err != nil || typ != msgTables {
				return
			}
		}
	}()
	return fr
}

// read returns the next frame, requiring wantType — from the read-ahead
// buffer while the goroutine lives, directly from the connection after.
func (fr *frameReader) read(wantType byte) ([]byte, error) {
	if fr.ch != nil {
		if f, ok := <-fr.ch; ok {
			if f.err != nil {
				return nil, f.err
			}
			if f.typ != wantType {
				return nil, typeMismatch(f.typ, wantType)
			}
			return f.payload, nil
		}
		fr.ch = nil // goroutine done; fall through to direct reads
	}
	return readFrame(fr.conn, wantType)
}

// shutdown joins the read-ahead goroutine. On a completed run it has
// already exited (it stops at its frame limit or at the parked sentinel
// frame); after a mid-stream failure it may be blocked in a read on a
// connection that is not going to deliver, so pending I/O is expired
// first. The deadline is cleared afterwards — on the failure paths the
// caller abandons the connection anyway, and on the success path a
// cleared deadline leaves a reusable conn exactly as it found it.
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

// countTraceFrames derives the exact number of msgTables frames a
// replayed stream carries: the cycle loops close a frame every CycleBatch
// cycles and at the run's last cycle, which is the trace's last.
func countTraceFrames(cfg Config) int {
	return (cfg.Trace.NumCycles() + cfg.batch() - 1) / cfg.batch()
}
