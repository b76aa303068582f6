package proto

import (
	"context"
	"errors"
	"fmt"
	"io"
	mrand "math/rand"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"arm2gc/internal/core"
	"arm2gc/internal/gc"
	"arm2gc/internal/ot"
	"arm2gc/internal/wire"
)

// hostileEvaluator plays a peer that completes the handshake and the OT
// honestly, swallows everything the garbler streams, and answers the
// output exchange with a zero-byte msgOutputs frame.
func hostileEvaluator(t *testing.T, conn net.Conn, cfg Config) {
	t.Helper()
	sid, err := cfg.SessionID()
	if err != nil {
		t.Error(err)
		return
	}
	if _, err := readExact(conn, msgHello, helloLen); err != nil {
		t.Error(err)
		return
	}
	if err := wire.Write(conn, msgHello, sid[:]); err != nil {
		t.Error(err)
		return
	}
	if _, err := readExact(conn, msgAliceLabels, 16*cfg.Circuit.AliceBits); err != nil {
		t.Error(err)
		return
	}
	if _, err := ot.ReceiveLabels(conn, make([]bool, cfg.Circuit.BobBits)); err != nil {
		t.Error(err)
		return
	}
	go func() { _, _ = io.Copy(io.Discard, conn) }() // tables and the decode frame
	_ = wire.Write(conn, msgOutputs, nil)            // the garbler may already have failed and hung up
}

// TestShortOutputsFrameGarbler: a peer answering the output exchange with
// a short msgOutputs frame must fail the garbler's session with an error
// from the frame header — live and pre-garbled, in both modes where the
// frame carries bits — not index past the payload and take the process
// down.
func TestShortOutputsFrameGarbler(t *testing.T) {
	for _, mode := range []OutputMode{OutputBoth, OutputGarblerOnly} {
		cfg, alice, _ := multiCycleConfig(t, 4)
		cfg.Outputs = mode
		roles := map[string]func(conn net.Conn) error{
			"RunGarbler": func(conn net.Conn) error {
				_, err := RunGarbler(context.Background(), conn, cfg, alice, nil)
				return err
			},
			"ServeRecorded": func(conn net.Conn) error {
				rec, _, err := RecordGarbler(context.Background(), cfg, alice, nil)
				if err != nil {
					return err
				}
				_, err = ServeRecorded(context.Background(), conn, cfg, rec)
				return err
			},
		}
		for name, garble := range roles {
			ca, cb := net.Pipe()
			done := make(chan struct{})
			go func() {
				defer close(done)
				hostileEvaluator(t, cb, cfg)
			}()
			err := garble(ca)
			if err == nil || !strings.Contains(err.Error(), "announces 0 bytes") {
				t.Errorf("%s, mode %v: got %v, want a short-frame error", name, mode, err)
			}
			ca.Close()
			<-done
			cb.Close()
		}
	}
}

// serveTampered plays a garbler serving a pre-garbled stream after the
// test has edited it, with an optional closing frame of its own, and
// returns the honest evaluator's error.
func serveTampered(t *testing.T, cfg Config, rec *Recorded, bob []bool, closing func(conn net.Conn) error) error {
	t.Helper()
	ca, cb := net.Pipe()
	done := make(chan struct{})
	defer func() {
		ca.Close()
		cb.Close()
		<-done
	}()
	go func() {
		defer close(done)
		if err := rec.handshake(ca, nil); err != nil {
			t.Error(err)
			return
		}
		for _, f := range rec.frames {
			if wire.Write(ca, msgTables, f) != nil {
				return // the evaluator gave up mid-stream, as it should
			}
		}
		if closing != nil {
			_ = closing(ca)
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, err := RunEvaluator(ctx, cb, cfg, bob)
	return err
}

// TestShortDecodeFrameEvaluator: the mirror case — a garbler closing the
// stream with a zero-byte msgDecode frame fails the evaluator cleanly.
func TestShortDecodeFrameEvaluator(t *testing.T) {
	cfg, alice, bob := multiCycleConfig(t, 4)
	rec, _, err := RecordGarbler(context.Background(), cfg, alice, mrand.New(mrand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	err = serveTampered(t, cfg, rec, bob, func(conn net.Conn) error {
		return wire.Write(conn, msgDecode, nil)
	})
	if err == nil || !strings.Contains(err.Error(), "announces 0 bytes") {
		t.Fatalf("got %v, want a short-frame error", err)
	}
}

// TestTamperedTableStream: a table stream one table short, or one table
// long, is refused by the evaluator's cycle loop — the kernel's
// exhausted-stream check and the batch-end leftover check.
func TestTamperedTableStream(t *testing.T) {
	cfg, alice, bob := multiCycleConfig(t, 4)
	for _, tc := range []struct {
		name, want string
		edit       func(frame []byte) []byte
	}{
		{"truncated", "table stream exhausted", func(f []byte) []byte { return f[:len(f)-gc.TableBytes] }},
		{"padded", "unconsumed tables", func(f []byte) []byte { return append(f, make([]byte, gc.TableBytes)...) }},
	} {
		rec, _, err := RecordGarbler(context.Background(), cfg, alice, mrand.New(mrand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		if len(rec.frames[1]) < gc.TableBytes {
			t.Fatal("second frame carries no table to tamper with")
		}
		rec.frames[1] = tc.edit(rec.frames[1])
		err = serveTampered(t, cfg, rec, bob, nil)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s stream: got %v, want %q", tc.name, err, tc.want)
		}
	}
}

// replayConfig returns cfg with the classification trace a recorded run
// of it produced: the evaluator config of a replaying party.
func replayConfig(t *testing.T, cfg Config, alice []bool) Config {
	t.Helper()
	rc := cfg
	rc.Record = core.Unbounded
	_, res, err := RecordGarbler(context.Background(), rc, alice, mrand.New(mrand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Trace = res.Trace
	return cfg
}

// TestTraceReplayExactTableFrames: an evaluator replaying a trace knows
// every table frame's exact size, so a frame one table short or one table
// long is refused from its header instead of being read in full and
// failing later in the cycle loop, and a table frame past the trace's last
// cycle is refused where the decode frame is due.
func TestTraceReplayExactTableFrames(t *testing.T) {
	cfg, alice, bob := multiCycleConfig(t, 4)
	replay := replayConfig(t, cfg, alice)
	for _, tc := range []struct {
		name string
		edit func(frame []byte) []byte
	}{
		{"short", func(f []byte) []byte { return f[:len(f)-gc.TableBytes] }},
		{"long", func(f []byte) []byte { return append(f, make([]byte, gc.TableBytes)...) }},
	} {
		rec, _, err := RecordGarbler(context.Background(), cfg, alice, mrand.New(mrand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		want := len(rec.frames[1])
		if want < gc.TableBytes {
			t.Fatal("second frame carries no table to tamper with")
		}
		rec.frames[1] = tc.edit(rec.frames[1])
		err = serveTampered(t, replay, rec, bob, nil)
		if msg := fmt.Sprintf("announces %d bytes, want %d", len(rec.frames[1]), want); err == nil || !strings.Contains(err.Error(), msg) {
			t.Errorf("%s frame: got %v, want %q", tc.name, err, msg)
		}
	}
	rec, _, err := RecordGarbler(context.Background(), cfg, alice, mrand.New(mrand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	err = serveTampered(t, replay, rec, bob, func(conn net.Conn) error {
		return wire.Write(conn, msgTables, make([]byte, gc.TableBytes))
	})
	if msg := fmt.Sprintf("got frame type %#02x, want %#02x", msgTables, msgDecode); err == nil || !strings.Contains(err.Error(), msg) {
		t.Errorf("extra frame: got %v, want %q", err, msg)
	}
}

// errPoisoned is what a poisonConn's owner sees once it has hung up.
var errPoisoned = errors.New("poisoned")

// poisonConn is an honest party's end of the connection that replaces
// the first frame of type typ its owner writes with a bare header
// announcing 1 GiB, then hangs up. Every writer in this package and in
// internal/ot puts a frame header into one Write, so the header is found
// by following frame lengths through the written bytes.
type poisonConn struct {
	net.Conn
	typ  byte
	left int64 // payload bytes of the current frame still to pass
	done bool
}

func (c *poisonConn) Write(b []byte) (int, error) {
	if c.done {
		return 0, errPoisoned
	}
	for off := 0; off < len(b); {
		if c.left > 0 {
			k := int(min(c.left, int64(len(b)-off)))
			off, c.left = off+k, c.left-int64(k)
			continue
		}
		h := wire.Header(b[off:])
		if h.Type() == c.typ {
			c.done = true
			if _, err := c.Conn.Write(append(b[:off:off], wire.AppendHeader(nil, c.typ, 1<<30)...)); err != nil {
				return 0, err
			}
			return 0, errPoisoned
		}
		off, c.left = off+wire.HeaderLen, int64(h.Len())
	}
	return c.Conn.Write(b)
}

// TestHostileLengthAtEveryRead: at every read of a session — the
// negotiation verdict, both hellos, Alice's labels, the table frames (live
// and replaying a trace), the decode frame and the outputs frame — a
// header announcing 1 GiB is refused from the header alone: an error, and
// well under 1 MiB allocated by both parties together.
func TestHostileLengthAtEveryRead(t *testing.T) {
	cfg, alice, bob := multiCycleConfig(t, 4)
	replay := replayConfig(t, cfg, alice)
	sites := []struct {
		name   string
		typ    byte
		bySide string // whose writes are poisoned: the other side is under test
		cfgE   Config
	}{
		{"hello", msgHello, "garbler", cfg},
		{"hello ack", msgHello, "evaluator", cfg},
		{"alice labels", msgAliceLabels, "garbler", cfg},
		{"tables", msgTables, "garbler", cfg},
		{"tables replayed", msgTables, "garbler", replay},
		{"decode", msgDecode, "garbler", cfg},
		{"outputs", msgOutputs, "evaluator", cfg},
	}
	for _, site := range sites {
		t.Run(site.name, func(t *testing.T) {
			ca, cb := net.Pipe()
			defer ca.Close()
			defer cb.Close()
			var gconn, econn net.Conn = ca, cb
			if site.bySide == "garbler" {
				gconn = &poisonConn{Conn: ca, typ: site.typ}
			} else {
				econn = &poisonConn{Conn: cb, typ: site.typ}
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			var gerr, eerr error
			grew := allocated(func() {
				done := make(chan struct{})
				go func() {
					defer close(done)
					_, gerr = RunGarbler(ctx, gconn, cfg, alice, mrand.New(mrand.NewSource(1)))
					if site.bySide == "evaluator" {
						ca.Close() // the garbler under test failed; unblock the evaluator
					}
				}()
				_, eerr = RunEvaluator(ctx, econn, site.cfgE, bob)
				if site.bySide == "garbler" {
					cb.Close() // the evaluator under test failed; unblock the garbler
				}
				<-done
			})
			underTest := eerr
			if site.bySide == "evaluator" {
				underTest = gerr
			}
			if underTest == nil || !strings.Contains(underTest.Error(), "announces 1073741824 bytes") {
				t.Errorf("got %v, want a refusal from the header", underTest)
			}
			if grew >= 1<<20 {
				t.Errorf("%d bytes allocated on a 1 GiB announcement", grew)
			}
		})
	}
	for _, typ := range []byte{msgGrant, msgReject} {
		ca, cb := net.Pipe()
		go func() {
			defer cb.Close()
			if _, err := ReadProposal(cb); err != nil {
				return
			}
			pc := &poisonConn{Conn: cb, typ: typ}
			if typ == msgGrant {
				_ = WriteGrant(pc, Grant{Outputs: OutputBoth, CycleBatch: 1, MaxCycles: 1})
			} else {
				_ = WriteReject(pc, "no")
			}
		}()
		var err error
		grew := allocated(func() { _, err = Negotiate(context.Background(), ca, Proposal{Program: "p"}) })
		ca.Close()
		if err == nil || !strings.Contains(err.Error(), "announces 1073741824 bytes") {
			t.Errorf("verdict type %#02x: got %v, want a refusal from the header", typ, err)
		}
		if grew >= 1<<20 {
			t.Errorf("verdict type %#02x: %d bytes allocated on a 1 GiB announcement", typ, grew)
		}
	}
}

// allocated returns the heap bytes allocated while fn ran.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
