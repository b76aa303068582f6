package wire

import (
	"bytes"
	"io"
	"testing"
)

// TestWriteOneCall: a frame leaves in one write, header and payload
// together, whatever its length — an empty payload included, which still
// writes its header and never a zero-byte write.
func TestWriteOneCall(t *testing.T) {
	for _, n := range []int{0, 1, flightBytes, 100 << 10} {
		payload := bytes.Repeat([]byte{0xA5}, n)
		var w countingWriter
		if err := Write(&w, Tables, payload); err != nil {
			t.Fatal(err)
		}
		if w.writes != 1 || !bytes.Equal(w.Bytes(), frame(Tables, payload)) {
			t.Errorf("%d-byte payload: %d writes of %d bytes, want one of %d", n, w.writes, w.Len(), HeaderLen+n)
		}
	}
}

// flightConn records a Flight's writes, where the last one's bytes lay,
// and, at each read, how many writes had been issued.
type flightConn struct {
	writes  [][]byte
	last    *byte
	atReads []int
}

func (c *flightConn) Write(p []byte) (int, error) {
	c.writes = append(c.writes, bytes.Clone(p))
	if len(p) > 0 {
		c.last = &p[0]
	}
	return len(p), nil
}

func (c *flightConn) Read(p []byte) (int, error) {
	c.atReads = append(c.atReads, len(c.writes))
	return 0, io.EOF
}

// TestFlightRule: frames wait in the buffer until it holds flightBytes at
// a frame boundary, then leave together in one write; a read, or Flush,
// writes what is pending first; a frame of flightBytes or more that finds
// the buffer empty is written as it is; and nothing pending means no
// write, never a zero-byte one.
func TestFlightRule(t *testing.T) {
	var c flightConn
	f := NewFlight(&c)
	small := frame(Tables, make([]byte, 595)) // 600 bytes: the fourth crosses 2 KiB
	var want []byte
	for i := 0; i < 4; i++ {
		if _, err := f.Write(small); err != nil {
			t.Fatal(err)
		}
		want = append(want, small...)
		if got := len(c.writes); got != i/3 {
			t.Fatalf("after %d small frames: %d writes, want %d", i+1, got, i/3)
		}
	}
	if !bytes.Equal(c.writes[0], want) {
		t.Fatalf("the first flight is %d bytes, want the four frames' %d", len(c.writes[0]), len(want))
	}

	big := frame(Tables, make([]byte, flightBytes))
	if _, err := f.Write(big); err != nil {
		t.Fatal(err)
	}
	if len(c.writes) != 2 || c.last != &big[0] {
		t.Fatalf("a large frame on an empty buffer was not written as it is (%d writes)", len(c.writes))
	}

	for _, turn := range []func() error{
		func() error { _, err := f.Read(make([]byte, 1)); return err },
		f.Flush,
	} {
		n := len(c.writes)
		if _, err := f.Write(frame(Decode, nil)); err != nil {
			t.Fatal(err)
		}
		_ = turn() // flightConn's reads end at once
		if len(c.writes) != n+1 || !bytes.Equal(c.writes[n], frame(Decode, nil)) {
			t.Fatalf("a pending frame did not leave before the turn (%d writes, %d before)", len(c.writes), n)
		}
	}
	if c.atReads[0] != 3 {
		t.Errorf("the read saw %d writes issued, want 3: the pending frame first", c.atReads[0])
	}

	n := len(c.writes)
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Read(make([]byte, 1)); err != io.EOF {
		t.Fatal(err)
	}
	if _, err := f.Write(nil); err != nil {
		t.Fatal(err)
	}
	if len(c.writes) != n {
		t.Errorf("%d writes with nothing pending", len(c.writes)-n)
	}
	for i, w := range c.writes {
		if len(w) == 0 {
			t.Errorf("write %d is empty", i)
		}
	}
}
