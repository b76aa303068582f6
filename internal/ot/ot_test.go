package ot

import (
	"fmt"
	"io"
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

// TestHashPointInjective: coordinates are hashed at their fixed width, so
// moving a byte across the separator makes a different key. Hashing the
// minimal big-endian encodings, (0x01, 0x1f02) and (0x011f, 0x02) both
// fed 01 1f 1f 02 to the hash.
func TestHashPointInjective(t *testing.T) {
	a := hashPoint(big.NewInt(0x01), big.NewInt(0x1f02))
	b := hashPoint(big.NewInt(0x011f), big.NewInt(0x02))
	if a == b {
		t.Fatal("distinct coordinate pairs hash to the same key")
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

// TestFlightShape pins the wire shape of both kinds of transfer: one OT
// frame per write, the sequence of frame lengths in each direction, and
// the totals. A first transfer on a connection runs the base OTs and one
// extension (the benchmark's ot.bytes); every later transfer on the same
// epoch is the extension alone, with no base-OT frame in either
// direction.
func TestFlightShape(t *testing.T) {
	for _, tc := range []struct{ m, first, extension int }{
		{32, 10016, 1546},   // handshake.sum32
		{512, 33056, 24586}, // hamming512
		{800, 46880, 38410}, // MatMul5's Bob width
	} {
		a, b := net.Pipe()
		ra, rb := &recordingConn{Conn: a}, &recordingConn{Conn: b}
		transfer(t, ra, rb, tc.m, 1)

		mBytes := (tc.m + 7) / 8
		wantSender := append(repeatLen(pointsPerFrame*pointLen, kappa/pointsPerFrame), tc.m*32)
		wantReceiver := []int{pointLen, kappa * mBytes}
		check := func(kind string, wantSender, wantReceiver []int, total int) {
			t.Helper()
			if got := ra.frames(t); !slices.Equal(got, wantSender) {
				t.Errorf("m=%d, %s: the sender wrote frame lengths %v, want %v", tc.m, kind, got, wantSender)
			}
			if got := rb.frames(t); !slices.Equal(got, wantReceiver) {
				t.Errorf("m=%d, %s: the receiver wrote frame lengths %v, want %v", tc.m, kind, got, wantReceiver)
			}
			if got := len(ra.sent) + len(rb.sent); got != total {
				t.Errorf("m=%d, %s: %d bytes on the wire, want %d", tc.m, kind, got, total)
			}
			if ra.writes != len(wantSender) || rb.writes != len(wantReceiver) {
				t.Errorf("m=%d, %s: %d and %d writes, want one per frame (%d and %d)",
					tc.m, kind, ra.writes, rb.writes, len(wantSender), len(wantReceiver))
			}
		}
		check("first transfer", wantSender, wantReceiver, tc.first)

		// The same pipe again: open an epoch off the record, then extend it
		// once on the record.
		sb, rbase := openEpoch(t, a, b)
		*ra, *rb = recordingConn{Conn: a}, recordingConn{Conn: b}
		extendOnce(t, sb, rbase, ra, rb, tc.m, 2)
		check("extension", []int{tc.m * 32}, []int{kappa * mBytes}, tc.extension)
		a.Close()
		b.Close()
	}
}

// openEpoch runs the base OTs over the two ends of a connection and
// returns both halves of the epoch.
func openEpoch(t testing.TB, a, b net.Conn) (*SenderBase, *ReceiverBase) {
	t.Helper()
	id, err := NewEpoch()
	if err != nil {
		t.Fatal(err)
	}
	type res struct {
		b   *SenderBase
		err error
	}
	ch := make(chan res, 1)
	go func() {
		sb, err := NewSenderBase(a, id)
		ch <- res{sb, err}
	}()
	rb, err := NewReceiverBase(b, id)
	if err != nil {
		t.Fatal(err)
	}
	s := <-ch
	if s.err != nil {
		t.Fatal(s.err)
	}
	if s.b.Epoch() != id || rb.Epoch() != id {
		t.Fatalf("epochs %x and %x, opened as %x", s.b.Epoch(), rb.Epoch(), id)
	}
	return s.b, rb
}

// extendOnce runs one extension of an epoch with fresh random pairs and
// choices, checks every received label is the chosen one and not the
// other, and returns the choices.
func extendOnce(t *testing.T, sb *SenderBase, rb *ReceiverBase, a, b io.ReadWriter, m int, seed int64) []bool {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pairs := randPairs(rng, m)
	choices := randChoices(rng, m)
	session := []byte(fmt.Sprintf("session %d", seed))
	errc := make(chan error, 1)
	go func() { errc <- sb.Extend(a, session, pairs) }()
	got, err := rb.Extend(b, session, choices)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	for i, c := range choices {
		want, other := pairs[i][0], pairs[i][1]
		if c {
			want, other = other, want
		}
		if got[i] != want || got[i] == other {
			t.Fatalf("m=%d: OT %d: wrong label received", m, i)
		}
	}
	return choices
}

// TestOTEpochReuse extends one epoch several times on one connection:
// every extension delivers the chosen labels, and no two extensions send
// the same correction columns — even for the same choices and session
// bytes, since the ordinal enters every derivation.
func TestOTEpochReuse(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	sb, rbase := openEpoch(t, a, b)
	const m = 100
	seen := map[string]int{}
	for i := 0; i < 4; i++ {
		rc := &recordingConn{Conn: b}
		extendOnce(t, sb, rbase, a, rc, m, 9) // the same pairs, choices and session bytes each time
		if j, dup := seen[string(rc.sent)]; dup {
			t.Fatalf("extensions %d and %d sent identical correction columns", j, i)
		}
		seen[string(rc.sent)] = i
	}
	if sb.n != 4 || rbase.n != 4 {
		t.Errorf("ordinals %d and %d after 4 extensions", sb.n, rbase.n)
	}
}

// TestExtensionOrdinalsMustAgree: an extension whose parties disagree on
// the ordinal (or the session bytes) derives different columns, so the
// receiver decodes garbage — the reason the protocol keeps both halves
// of an epoch in step and never lets one connection's halves drift.
func TestExtensionOrdinalsMustAgree(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	sb, rbase := openEpoch(t, a, b)
	sb.n++ // the sender is one extension ahead
	rng := rand.New(rand.NewSource(4))
	pairs, choices := randPairs(rng, 16), randChoices(rng, 16)
	errc := make(chan error, 1)
	go func() { errc <- sb.Extend(a, nil, pairs) }()
	got, err := rbase.Extend(b, nil, choices)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	for i, c := range choices {
		if got[i] == pairs[i][btoi(c)] {
			t.Fatalf("OT %d delivered the chosen label with the ordinals out of step", i)
		}
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
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

// BenchmarkExtension times what every session after a connection's first
// pays for OT: one extension of an epoch over loopback TCP, at the Bob
// widths the repo benchmark runs.
func BenchmarkExtension(b *testing.B) {
	for _, m := range []int{32, 512} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			ca, cb := tcpPair(b)
			sb, rbase := openEpoch(b, ca, cb)
			rng := rand.New(rand.NewSource(1))
			pairs, choices := randPairs(rng, m), randChoices(rng, m)
			session := []byte("session")
			errc := make(chan error, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				go func() { errc <- sb.Extend(ca, session, pairs) }()
				if _, err := rbase.Extend(cb, session, choices); err != nil {
					b.Fatal(err)
				}
				if err := <-errc; err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
