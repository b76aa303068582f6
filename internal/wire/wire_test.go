package wire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
)

// frame encodes one frame.
func frame(typ byte, payload []byte) []byte {
	return append(AppendHeader(nil, typ, len(payload)), payload...)
}

func TestReadBounds(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, Tables, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	if err := Write(&buf, Decode, nil); err != nil {
		t.Fatal(err)
	}
	if got, err := Read(&buf, Tables, 0, 3); err != nil || string(got) != "abc" {
		t.Fatalf("read %q, %v", got, err)
	}
	if got, err := Read(&buf, Decode, 0, 0); err != nil || len(got) != 0 {
		t.Fatalf("empty frame: %q, %v", got, err)
	}
	if _, err := Read(&buf, Decode, 0, 0); err != io.EOF {
		t.Fatalf("end of stream between frames: %v, want io.EOF", err)
	}

	for _, tc := range []struct {
		name     string
		stream   []byte
		min, max int
		want     string
	}{
		{"wrong type", frame(Decode, []byte("x")), 0, 8, "got frame type 0x04, want 0x03"},
		{"too long", AppendHeader(nil, Tables, 1<<30), 0, 8, "announces 1073741824 bytes, want 0 to 8"},
		{"not exact", frame(Tables, []byte("x")), 2, 2, "announces 1 bytes, want 2"},
	} {
		// Nothing past the header is read: the stream would stall there.
		_, err := Read(bytes.NewReader(tc.stream[:HeaderLen]), Tables, tc.min, tc.max)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want %q", tc.name, err, tc.want)
		}
	}
	if _, err := Read(bytes.NewReader(AppendHeader(nil, Tables, 4)), Tables, 0, 8); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("stream ending after a header: %v, want io.ErrUnexpectedEOF", err)
	}
}

// TestPayloadIntoReusesBuffer reads frames into one buffer: a payload
// that fits reuses its storage, a longer one gets a buffer of exactly its
// announced length.
func TestPayloadIntoReusesBuffer(t *testing.T) {
	var stream []byte
	for _, p := range []string{"abcd", "xy", "longer"} {
		stream = append(stream, frame(Tables, []byte(p))...)
	}
	r := bytes.NewReader(stream)
	read := func(buf []byte, want string) []byte {
		t.Helper()
		h, err := ReadHeader(r)
		if err != nil {
			t.Fatal(err)
		}
		got, err := h.PayloadInto(buf, r, Tables, 0, 8)
		if err != nil || string(got) != want {
			t.Fatalf("read %q, %v; want %q", got, err, want)
		}
		return got
	}
	first := read(nil, "abcd")
	if second := read(first, "xy"); &second[0] != &first[0] {
		t.Error("a payload that fits did not reuse the buffer")
	}
	if third := read(first, "longer"); cap(third) != len("longer") {
		t.Errorf("grown buffer has capacity %d, want the announced %d", cap(third), len("longer"))
	}
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

// TestRelayBatches: frames already sitting in the source's buffer cross in
// one write, byte for byte; a frame larger than the relay buffer streams
// through in buffer-sized pieces, still byte for byte and in order. Each
// run of frames leaves in at most ⌈bytes/buffer⌉ + 1 writes.
func TestRelayBatches(t *testing.T) {
	var small []byte
	const frames = 40 // 40 × 70 bytes fits the 4 KiB source buffer
	for i := 0; i < frames; i++ {
		small = append(small, frame(OT, bytes.Repeat([]byte{byte(i)}, 65))...)
	}
	big := make([]byte, 3*relayBuf+17)
	for i := range big {
		big[i] = byte(i * 7)
	}
	large := append(frame(Tables, big), frame(Decode, nil)...)

	src := bufio.NewReader(bytes.NewReader(append(bytes.Clone(small), large...)))
	var r Relay
	for _, run := range []struct {
		name   string
		stream []byte
		relay  func(dst io.Writer) error
	}{
		{"buffered frames", small, func(dst io.Writer) error {
			for i := 0; i < frames; i++ {
				if _, err := r.Frame(dst, src, TypeSet(OT)); err != nil {
					return err
				}
			}
			return r.Flush(dst)
		}},
		{"large frame", large, func(dst io.Writer) error {
			return r.Until(dst, src, TypeSet(Tables, Decode), Decode)
		}},
	} {
		var dst countingWriter
		if err := run.relay(&dst); err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		if !bytes.Equal(dst.Bytes(), run.stream) {
			t.Errorf("%s: relayed bytes differ from the source stream", run.name)
		}
		if most := (len(run.stream)+relayBuf-1)/relayBuf + 1; dst.writes > most {
			t.Errorf("%s: %d writes, want at most %d", run.name, dst.writes, most)
		}
	}
	if len(r.buf) != relayBuf {
		t.Errorf("relay buffer grew to %d bytes", len(r.buf))
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(b []byte) (int, error) { return f(b) }

// TestRelayNeverWaitsWithBytesInHand: the relay forwards what it holds
// before blocking on its source, so the receiving party is never left
// waiting on bytes the relay already has.
func TestRelayNeverWaitsWithBytesInHand(t *testing.T) {
	feed, sink := net.Pipe()
	defer feed.Close()
	defer sink.Close()
	src := bufio.NewReader(sink)
	forwarded := make(chan []byte, 4) // one entry per relay write; the test makes at most 3
	dst := writerFunc(func(b []byte) (int, error) {
		forwarded <- bytes.Clone(b)
		return len(b), nil
	})

	first, second := frame(OT, []byte("first")), frame(Outputs, []byte("second"))
	done := make(chan error, 1)
	go func() {
		var r Relay
		done <- r.Until(dst, src, TypeSet(OT, Outputs), Outputs)
	}()

	if _, err := feed.Write(first); err != nil {
		t.Fatal(err)
	}
	// The relay must hand the first frame on while the second has not
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

// TestRelayRejects: a frame type outside the allowed set is refused from
// its header with nothing forwarded, and a stream that ends inside an
// announced frame is an error the relay reaches without having sized
// anything from the announcement.
func TestRelayRejects(t *testing.T) {
	var r Relay
	var dst countingWriter
	_, err := r.Frame(&dst, bufio.NewReader(bytes.NewReader(frame(Tables, []byte("t")))), TypeSet(Hello, OT, Outputs))
	if err == nil || !strings.Contains(err.Error(), "frame type 0x03 not allowed") {
		t.Errorf("disallowed type: %v", err)
	}
	if err := r.Flush(&dst); err != nil || dst.Len() != 0 {
		t.Errorf("a refused frame left %d bytes to forward (%v)", dst.Len(), err)
	}

	huge := append(AppendHeader(nil, Tables, 0xFFFFFFFF), "only a few bytes follow"...)
	_, err = r.Frame(io.Discard, bufio.NewReader(bytes.NewReader(huge)), TypeSet(Tables))
	if err != io.ErrUnexpectedEOF && err != io.EOF {
		t.Errorf("truncated 4 GiB frame: %v, want an EOF error", err)
	}
	if len(r.buf) != relayBuf {
		t.Errorf("relay buffer is %d bytes after a 4 GiB announcement", len(r.buf))
	}
}
