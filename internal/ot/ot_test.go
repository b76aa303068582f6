package ot

import (
	"fmt"
	"math/big"
	"math/rand"
	"net"
	"slices"
	"testing"

	"arm2gc/internal/gc"
	"arm2gc/internal/wire"
)

// recvMsg reads and drops one OT frame of exactly n bytes.
func recvMsg(t testing.TB, c net.Conn, n int) {
	t.Helper()
	if _, err := wire.Read(c, wire.OT, n, n); err != nil {
		t.Fatal(err)
	}
}

// otFrame frames one OT message.
func otFrame(payload []byte) []byte {
	return append(wire.AppendHeader(nil, wire.OT, len(payload)), payload...)
}

func randChoices(rng *rand.Rand, n int) []bool {
	choices := make([]bool, n)
	for i := range choices {
		choices[i] = rng.Intn(2) == 1
	}
	return choices
}

func randPairs(rng *rand.Rand, m int) [][2]gc.Label {
	pairs := make([][2]gc.Label, m)
	for i := range pairs {
		pairs[i] = [2]gc.Label{
			{Lo: rng.Uint64(), Hi: rng.Uint64()},
			{Lo: rng.Uint64(), Hi: rng.Uint64()},
		}
	}
	return pairs
}

func TestBaseOT(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()

	// Not a multiple of pointsPerFrame: the last frame is a short one.
	const n = 4*pointsPerFrame + 3
	choices := randChoices(rand.New(rand.NewSource(3)), n)

	type sres struct {
		keys [][2]key
		err  error
	}
	ch := make(chan sres, 1)
	go func() {
		keys, err := baseSenderKeys(a, n)
		ch <- sres{keys, err}
	}()
	rkeys, rerr := baseReceiverKeys(b, choices)
	s := <-ch
	if s.err != nil || rerr != nil {
		t.Fatalf("sender err %v, receiver err %v", s.err, rerr)
	}
	for i, c := range choices {
		want := s.keys[i][0]
		other := s.keys[i][1]
		if c {
			want, other = other, want
		}
		if rkeys[i] != want {
			t.Fatalf("OT %d: receiver key != chosen sender key", i)
		}
		if rkeys[i] == other {
			t.Fatalf("OT %d: receiver key equals unchosen key", i)
		}
	}
}

// legacySenderKeyPair is the sender derivation this package shipped until
// T = a·A was hoisted out of the loop: it multiplies B−A out with a second
// variable-base multiplication. It lives on as the oracle senderKeyPair
// must match bit for bit.
func legacySenderKeyPair(a []byte, ax, ay, bx, by *big.Int) [2]key {
	x0, y0 := curve.ScalarMult(bx, by, a)
	dx, dy := curve.Add(bx, by, ax, negY(ay))
	x1, y1 := curve.ScalarMult(dx, dy, a)
	return [2]key{hashPoint(x0, y0), hashPoint(x1, y1)}
}

func TestSenderKeysMatchLegacyDerivation(t *testing.T) {
	n := curve.Params().N
	scalars := []*big.Int{
		big.NewInt(1),
		big.NewInt(2),
		new(big.Int).Sub(n, big.NewInt(1)),
		new(big.Int).Rsh(n, 1),
		new(big.Int).SetBytes([]byte("arm2gc base OT differential test")),
	}
	for _, a := range scalars {
		a := new(big.Int).Mod(a, n).Bytes()
		ax, ay := curve.ScalarBaseMult(a)
		tx, ty := curve.ScalarMult(ax, ay, a)
		negTy := negY(ty)
		check := func(what string, bx, by *big.Int) {
			t.Helper()
			got, want := senderKeyPair(a, tx, negTy, bx, by), legacySenderKeyPair(a, ax, ay, bx, by)
			if got != want {
				t.Errorf("a=%x, %s: keys %x, legacy derivation %x", a, what, got, want)
			}
			if got[0] == got[1] {
				t.Errorf("a=%x, %s: k0 == k1", a, what)
			}
		}
		for _, b := range scalars {
			b := new(big.Int).Mod(b, n).Bytes()
			bx, by := curve.ScalarBaseMult(b)
			check("choice 0", bx, by)
			cx, cy := curve.Add(bx, by, ax, ay)
			check("choice 1", cx, cy)
		}
		// B = A: B−A is the point at infinity, and so is a·B − T.
		check("B = A", ax, ay)
		check("B = -A", ax, negY(ay))
		dx, dy := curve.Double(ax, ay)
		check("B = 2A", dx, dy)
	}
}

// transfer runs SendLabels on a and ReceiveLabels on b and checks every
// received label is the chosen one and not the other.
func transfer(t *testing.T, a, b net.Conn, m int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pairs := randPairs(rng, m)
	choices := randChoices(rng, m)

	errc := make(chan error, 1)
	go func() { errc <- SendLabels(a, pairs) }()
	got, err := ReceiveLabels(b, choices)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	for i, c := range choices {
		want := pairs[i][0]
		other := pairs[i][1]
		if c {
			want, other = other, want
		}
		if got[i] != want {
			t.Fatalf("m=%d: OT %d: wrong label received", m, i)
		}
		if got[i] == other {
			t.Fatalf("m=%d: OT %d: received the unchosen label", m, i)
		}
	}
}

func TestExtensionSizes(t *testing.T) {
	for _, m := range []int{1, 7, 8, 64, 127, 500, 1024} {
		a, b := net.Pipe()
		transfer(t, a, b, m, int64(m))
		a.Close()
		b.Close()
	}
}

func TestTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := 40
	cols := make([][]byte, kappa)
	for j := range cols {
		cols[j] = make([]byte, (m+7)/8)
		rng.Read(cols[j])
	}
	rows := transpose(cols, m)
	for i := 0; i < m; i++ {
		for j := 0; j < kappa; j++ {
			cb := cols[j][i/8]&(1<<uint(i%8)) != 0
			rb := rows[i][j/8]&(1<<uint(j%8)) != 0
			if cb != rb {
				t.Fatalf("transpose mismatch at row %d col %d", i, j)
			}
		}
	}
}

func TestEmpty(t *testing.T) {
	if err := SendLabels(nil, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReceiveLabels(nil, nil)
	if err != nil || got != nil {
		t.Fatalf("got %v, %v", got, err)
	}
}

func TestBaseOTRejectsBadPoint(t *testing.T) {
	bad := make([]byte, pointLen)
	bad[0], bad[1], bad[33] = 0x04, 1, 2
	for name, reply := range map[string][]byte{
		// A wrong prefix must fail at once, without waiting for the bytes
		// a real point would still owe: the pipe stays open.
		"wrong length":  {0x04, 1, 2, 3},
		"off the curve": bad,
	} {
		t.Run(name, func(t *testing.T) {
			a, b := net.Pipe()
			defer a.Close()
			defer b.Close()
			errc := make(chan error, 1)
			go func() {
				_, err := baseSenderKeys(a, 1)
				errc <- err
			}()
			// Read the sender's point, then reply with garbage.
			recvMsg(t, b, pointLen)
			go b.Write(otFrame(reply)) // the pipe blocks on bytes the sender refuses
			if err := <-errc; err == nil {
				t.Error("sender accepted a malformed receiver point")
			}
		})
	}
}

func TestExtensionRejectsShortVectors(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	errc := make(chan error, 1)
	go func() {
		errc <- SendLabels(a, make([][2]gc.Label, 64))
	}()
	// Play a broken receiver: run the base OTs honestly, then send a
	// truncated correction vector and keep the pipe open.
	if _, err := baseSenderKeys(b, kappa); err != nil {
		t.Fatal(err)
	}
	go b.Write(otFrame([]byte{1})) // 1 byte, want 128 × 8
	if err := <-errc; err == nil {
		t.Error("sender accepted a short correction vector")
	}
}

// TestFlightShape pins the wire shape: one OT frame per write, the
// sequence of frame lengths in each direction, and totals equal to the
// benchmark's ot.bytes.
func TestFlightShape(t *testing.T) {
	for _, tc := range []struct{ m, total int }{
		{32, 10016},  // handshake.sum32
		{512, 33056}, // hamming512
		{800, 46880}, // MatMul5's Bob width
	} {
		a, b := net.Pipe()
		ra, rb := &recordingConn{Conn: a}, &recordingConn{Conn: b}
		transfer(t, ra, rb, tc.m, 1)
		a.Close()
		b.Close()

		mBytes := (tc.m + 7) / 8
		wantSender := append(repeatLen(pointsPerFrame*pointLen, kappa/pointsPerFrame), tc.m*32)
		wantReceiver := []int{pointLen, kappa * mBytes}
		if got := ra.frames(t); !slices.Equal(got, wantSender) {
			t.Errorf("m=%d: SendLabels wrote frame lengths %v, want %v", tc.m, got, wantSender)
		}
		if got := rb.frames(t); !slices.Equal(got, wantReceiver) {
			t.Errorf("m=%d: ReceiveLabels wrote frame lengths %v, want %v", tc.m, got, wantReceiver)
		}
		if got := len(ra.sent) + len(rb.sent); got != tc.total {
			t.Errorf("m=%d: %d bytes on the wire, want %d", tc.m, got, tc.total)
		}
		if ra.writes != len(wantSender) || rb.writes != len(wantReceiver) {
			t.Errorf("m=%d: %d and %d writes, want one per frame (%d and %d)",
				tc.m, ra.writes, rb.writes, len(wantSender), len(wantReceiver))
		}
	}
}

// recordingConn keeps what its owner wrote and counts the writes.
type recordingConn struct {
	net.Conn
	sent   []byte
	writes int
}

func (c *recordingConn) Write(b []byte) (int, error) {
	c.writes++
	c.sent = append(c.sent, b...)
	return c.Conn.Write(b)
}

// frames parses the recorded stream as OT frames and returns their
// payload lengths.
func (c *recordingConn) frames(t *testing.T) []int {
	t.Helper()
	var out []int
	for rest := c.sent; len(rest) > 0; {
		if len(rest) < wire.HeaderLen {
			t.Fatalf("%d stray bytes after the last frame", len(rest))
		}
		h := wire.Header(rest)
		if h.Type() != wire.OT {
			t.Fatalf("frame type %#02x, want %#02x", h.Type(), wire.OT)
		}
		n := int(h.Len())
		if len(rest) < wire.HeaderLen+n {
			t.Fatalf("frame of %d bytes announced, %d left", n, len(rest)-wire.HeaderLen)
		}
		out = append(out, n)
		rest = rest[wire.HeaderLen+n:]
	}
	return out
}

func repeatLen(n, count int) []int {
	out := make([]int, count)
	for i := range out {
		out[i] = n
	}
	return out
}

// oneByteConn delivers at most one byte per Read, the worst segmentation
// a transport can inflict on a flight.
type oneByteConn struct{ net.Conn }

func (c oneByteConn) Read(b []byte) (int, error) {
	if len(b) > 1 {
		b = b[:1]
	}
	return c.Conn.Read(b)
}

// TestTransferAnySegmentation runs the full transfer over transports that
// split flights differently — net.Pipe (one Read per Write, synchronous),
// one byte per Read, and loopback TCP — proving nothing depends on where a
// flight's writes land in the reader's reads.
func TestTransferAnySegmentation(t *testing.T) {
	t.Run("pipe", func(t *testing.T) {
		a, b := net.Pipe()
		defer a.Close()
		defer b.Close()
		transfer(t, a, b, 100, 5)
	})
	t.Run("one-byte-reads", func(t *testing.T) {
		a, b := net.Pipe()
		defer a.Close()
		defer b.Close()
		transfer(t, oneByteConn{a}, oneByteConn{b}, 100, 6)
	})
	t.Run("tcp", func(t *testing.T) {
		a, b := tcpPair(t)
		transfer(t, a, b, 100, 7)
	})
}

func tcpPair(t testing.TB) (net.Conn, net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type accepted struct {
		c   net.Conn
		err error
	}
	ch := make(chan accepted, 1)
	go func() {
		c, err := ln.Accept()
		ch <- accepted{c, err}
	}()
	a, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	acc := <-ch
	if acc.err != nil {
		t.Fatal(acc.err)
	}
	t.Cleanup(func() { acc.c.Close() })
	return a, acc.c
}

// BenchmarkLabelTransfer times one whole OT phase — 128 base OTs plus the
// extension — over loopback TCP at the Bob widths the repo benchmark runs.
func BenchmarkLabelTransfer(b *testing.B) {
	for _, m := range []int{32, 512} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			ca, cb := tcpPair(b)
			rng := rand.New(rand.NewSource(1))
			pairs, choices := randPairs(rng, m), randChoices(rng, m)
			errc := make(chan error, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				go func() { errc <- SendLabels(ca, pairs) }()
				if _, err := ReceiveLabels(cb, choices); err != nil {
					b.Fatal(err)
				}
				if err := <-errc; err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
