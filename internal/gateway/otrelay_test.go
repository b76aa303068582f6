package gateway

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"strings"
	"testing"
)

func otMsg(payload []byte) []byte {
	return append(binary.LittleEndian.AppendUint32(nil, uint32(len(payload))), payload...)
}

// countingWriter records what the relay wrote and in how many writes.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (w *countingWriter) Write(b []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(b)
}

// TestGatewayOTRelayBatches: a flight already sitting in the source's
// buffer crosses in one write, byte for byte; a message larger than the
// relay buffer streams through in buffer-sized pieces, still byte for
// byte and in order.
func TestGatewayOTRelayBatches(t *testing.T) {
	var stream []byte
	const points = 40 // 40 × 69 bytes fits the 4 KiB source buffer
	for i := 0; i < points; i++ {
		stream = append(stream, otMsg(bytes.Repeat([]byte{byte(i)}, otPointLen))...)
	}
	big := make([]byte, 3*otRelayBuf+17)
	for i := range big {
		big[i] = byte(i * 7)
	}
	stream = append(stream, otMsg(big)...)

	src := bufio.NewReader(bytes.NewReader(stream))
	var r otRelay
	var dst countingWriter
	for i := 0; i < points; i++ {
		if err := r.copyMsg(&dst, src, true); err != nil {
			t.Fatalf("point %d: %v", i, err)
		}
	}
	if err := r.flush(&dst); err != nil {
		t.Fatal(err)
	}
	if dst.writes != 1 {
		t.Errorf("%d buffered points took %d writes, want 1", points, dst.writes)
	}
	if err := r.copyMsg(&dst, src, false); err != nil {
		t.Fatalf("big message: %v", err)
	}
	if err := r.flush(&dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst.Bytes(), stream) {
		t.Error("relayed bytes differ from the source stream")
	}
	if most := 1 + len(big)/otRelayBuf + 2; dst.writes > most {
		t.Errorf("%d writes in all, want at most %d", dst.writes, most)
	}
	if len(r.buf) != otRelayBuf {
		t.Errorf("relay buffer grew to %d bytes", len(r.buf))
	}
}

// TestGatewayOTRelayNeverWaitsWithBytesInHand: the relay forwards what it
// holds before blocking on its source, so the receiving party is never
// left waiting on bytes the gateway already has.
func TestGatewayOTRelayNeverWaitsWithBytesInHand(t *testing.T) {
	feed, sink := net.Pipe()
	defer feed.Close()
	defer sink.Close()
	src := bufio.NewReader(sink)
	forwarded := make(chan []byte, 4) // one entry per relay write; the test makes at most 3
	dst := writerFunc(func(b []byte) (int, error) {
		forwarded <- bytes.Clone(b)
		return len(b), nil
	})

	first, second := otMsg([]byte("first")), otMsg([]byte("second"))
	done := make(chan error, 1)
	go func() {
		var r otRelay
		for i := 0; i < 2; i++ {
			if err := r.copyMsg(dst, src, false); err != nil {
				done <- err
				return
			}
		}
		done <- r.flush(dst)
	}()

	if _, err := feed.Write(first); err != nil {
		t.Fatal(err)
	}
	// The relay must hand the first message on while the second has not
	// even been sent.
	if got := <-forwarded; !bytes.Equal(got, first) {
		t.Fatalf("forwarded %q before blocking, want %q", got, first)
	}
	if _, err := feed.Write(second); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := <-forwarded; !bytes.Equal(got, second) {
		t.Fatalf("forwarded %q, want %q", got, second)
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(b []byte) (int, error) { return f(b) }

// TestGatewayOTRelayRejects: a point message must announce exactly 65
// bytes, and a stream that ends inside an announced message is an error
// the relay reaches without having sized anything from the announcement.
func TestGatewayOTRelayRejects(t *testing.T) {
	var r otRelay
	err := r.copyMsg(io.Discard, bufio.NewReader(bytes.NewReader(otMsg(make([]byte, 64)))), true)
	if err == nil || !strings.Contains(err.Error(), "announces 64 bytes") {
		t.Errorf("64-byte point: %v", err)
	}

	huge := binary.LittleEndian.AppendUint32(nil, 0xFFFFFFFF)
	huge = append(huge, "only a few bytes follow"...)
	err = r.copyMsg(io.Discard, bufio.NewReader(bytes.NewReader(huge)), false)
	if err != io.ErrUnexpectedEOF && err != io.EOF {
		t.Errorf("truncated 4 GiB message: %v, want an EOF error", err)
	}
	if len(r.buf) != otRelayBuf {
		t.Errorf("relay buffer is %d bytes after a 4 GiB announcement", len(r.buf))
	}
}
