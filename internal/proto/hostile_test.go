package proto

import (
	"context"
	"io"
	mrand "math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"arm2gc/internal/gc"
	"arm2gc/internal/ot"
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
	if _, err := readFrame(conn, msgHello); err != nil {
		t.Error(err)
		return
	}
	if err := writeFrame(conn, msgHello, sid[:]); err != nil {
		t.Error(err)
		return
	}
	if _, err := readFrame(conn, msgAliceLabels); err != nil {
		t.Error(err)
		return
	}
	if _, err := ot.ReceiveLabels(conn, make([]bool, cfg.Circuit.BobBits)); err != nil {
		t.Error(err)
		return
	}
	go func() { _, _ = io.Copy(io.Discard, conn) }() // tables, and the decode frame if any
	_ = writeFrame(conn, msgOutputs, nil)            // the garbler may already have failed and hung up
}

// TestShortOutputsFrameGarbler: a peer answering the output exchange with
// a short msgOutputs frame must fail the garbler's session with an error —
// live and pre-garbled, in both modes that read the frame — not index past
// the payload and take the process down.
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
			if err == nil || !strings.Contains(err.Error(), "bit frame of 0 bytes") {
				t.Errorf("%s, mode %v: got %v, want a short-bit-frame error", name, mode, err)
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
		if err := rec.handshake(ca); err != nil {
			t.Error(err)
			return
		}
		for _, f := range rec.frames {
			if writeFrame(ca, msgTables, f) != nil {
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
		return writeFrame(conn, msgDecode, nil)
	})
	if err == nil || !strings.Contains(err.Error(), "bit frame of 0 bytes") {
		t.Fatalf("got %v, want a short-bit-frame error", err)
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
