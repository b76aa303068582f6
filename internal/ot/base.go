// Package ot implements 1-out-of-2 oblivious transfer for the
// honest-but-curious model: a Diffie-Hellman base OT on NIST P-256 (in the
// style of Naor-Pinkas/Chou-Orlandi simplified for passive adversaries)
// and the IKNP OT extension, which turns 128 base OTs into any number of
// label transfers using only symmetric cryptography.
//
// All protocols run over an io.ReadWriter with internal length-prefixed
// framing; the two parties call the matching Send/Receive functions on the
// two ends of a connection (net.Pipe in tests, TCP in the protocol layer).
//
// Every message's length is fixed by the protocol and the caller's own
// input size, so a party sends a whole flight of messages through one
// buffer and reads a flight knowing its exact byte count: nothing here
// sizes an allocation from a length read off the wire, and no read goes
// past the end of the flight.
package ot

import (
	"bufio"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math/big"
)

type key = [16]byte

// curve is the base-OT group.
var curve = elliptic.P256()

const (
	// prefixLen is the little-endian length prefix of every message.
	prefixLen = 4

	// pointLen is the uncompressed encoding of a P-256 point, the payload
	// of every base-OT message.
	pointLen = 65

	// pointsPerFlush is how many of its points the base receiver buffers
	// before writing them: small enough that the sender's multiplications
	// on one chunk overlap the receiver's on the same chunk, large enough
	// that 128 points cost 16 writes rather than 256.
	pointsPerFlush = 8

	// flightBuf bounds the read buffer of a flight.
	flightBuf = 4096
)

// appendMsg appends one length-prefixed message to buf.
func appendMsg(buf, b []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(b)))
	return append(buf, b...)
}

// flight reads a run of length-prefixed messages whose number and sizes
// the reader knows before the first byte arrives. It buffers, so a run of
// small messages costs few reads, but never reads past the flight's last
// byte; each prefix is checked the moment it arrives, so a peer announcing
// a wrong length is an error at once rather than a wait for bytes that
// will not come.
type flight struct {
	br   *bufio.Reader
	what string // names the messages in errors
	n    int    // messages read so far
	hdr  [prefixLen]byte
}

// readFlight starts reading a flight of total bytes (prefixes included).
func readFlight(r io.Reader, what string, total int) *flight {
	lr := &io.LimitedReader{R: r, N: int64(total)}
	return &flight{br: bufio.NewReaderSize(lr, min(total, flightBuf)), what: what}
}

// next reads the flight's next message, which must be exactly len(dst)
// bytes long, into dst.
func (f *flight) next(dst []byte) error {
	if _, err := io.ReadFull(f.br, f.hdr[:]); err != nil {
		return f.readErr(err)
	}
	if n := binary.LittleEndian.Uint32(f.hdr[:]); uint64(n) != uint64(len(dst)) {
		return fmt.Errorf("ot: %s %d: %d bytes announced, want %d", f.what, f.n, n, len(dst))
	}
	if _, err := io.ReadFull(f.br, dst); err != nil {
		return f.readErr(err)
	}
	f.n++
	return nil
}

// readErr names the message a read failed in. The stream ending anywhere
// inside a flight is unexpected, message boundary or not.
func (f *flight) readErr(err error) error {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("ot: %s %d: %w", f.what, f.n, err)
}

func randScalar() (*big.Int, error) {
	n := curve.Params().N
	for {
		k, err := rand.Int(rand.Reader, n)
		if err != nil {
			return nil, err
		}
		if k.Sign() > 0 {
			return k, nil
		}
	}
}

// negY returns the y-coordinate of -P for a point with y-coordinate y.
func negY(y *big.Int) *big.Int {
	p := curve.Params().P
	ny := new(big.Int).Sub(p, y)
	return ny.Mod(ny, p)
}

func hashPoint(x, y *big.Int) key {
	h := sha256.New()
	h.Write(x.Bytes())
	h.Write([]byte{0x1f})
	h.Write(y.Bytes())
	var k key
	copy(k[:], h.Sum(nil))
	return k
}

// senderKeyPair derives the sender's two keys for the receiver point B
// from its scalar a and −T, where T = a·A is computed once per run:
// k0 = H(a·B) and k1 = H(a·(B−A)) = H(a·B − T). One variable-base
// multiplication and one addition, where multiplying B−A out would take
// a second multiplication for the same point.
func senderKeyPair(a []byte, tx, negTy, bx, by *big.Int) [2]key {
	x0, y0 := curve.ScalarMult(bx, by, a)
	x1, y1 := curve.Add(x0, y0, tx, negTy)
	return [2]key{hashPoint(x0, y0), hashPoint(x1, y1)}
}

// baseSenderKeys runs n base OTs as the sender, returning for each OT the
// pair of derived keys (k0, k1); the receiver learns exactly one of each
// pair, unknown to the sender.
func baseSenderKeys(conn io.ReadWriter, n int) ([][2]key, error) {
	a, err := randScalar()
	if err != nil {
		return nil, err
	}
	aBytes := a.Bytes()
	ax, ay := curve.ScalarBaseMult(aBytes)
	if _, err := conn.Write(appendMsg(nil, elliptic.Marshal(curve, ax, ay))); err != nil {
		return nil, err
	}
	tx, ty := curve.ScalarMult(ax, ay, aBytes)
	negTy := negY(ty)

	// The receiver's points arrive a chunk at a time; each is used as soon
	// as it is in, so these multiplications overlap the receiver's.
	points := readFlight(conn, "base OT point", n*(prefixLen+pointLen))
	keys := make([][2]key, n)
	var msg [pointLen]byte
	for i := range keys {
		if err := points.next(msg[:]); err != nil {
			return nil, err
		}
		bx, by := elliptic.Unmarshal(curve, msg[:])
		if bx == nil {
			return nil, fmt.Errorf("ot: base OT point %d: not a curve point", i)
		}
		keys[i] = senderKeyPair(aBytes, tx, negTy, bx, by)
	}
	return keys, nil
}

// baseReceiverKeys runs n base OTs as the receiver with the given choice
// bits, returning the chosen key of each pair.
func baseReceiverKeys(conn io.ReadWriter, choices []bool) ([]key, error) {
	var msg [pointLen]byte
	if err := readFlight(conn, "base OT sender point", prefixLen+pointLen).next(msg[:]); err != nil {
		return nil, err
	}
	ax, ay := elliptic.Unmarshal(curve, msg[:])
	if ax == nil {
		return nil, fmt.Errorf("ot: base OT sender point: not a curve point")
	}

	// Per chunk: the cheap fixed-base half first and out in one write, so
	// the sender can start on the chunk, then the variable-base half.
	keys := make([]key, len(choices))
	scalars := make([][]byte, 0, pointsPerFlush)
	out := make([]byte, 0, pointsPerFlush*(prefixLen+pointLen))
	for lo := 0; lo < len(choices); lo += pointsPerFlush {
		chunk := choices[lo:min(lo+pointsPerFlush, len(choices))]
		scalars, out = scalars[:0], out[:0]
		for _, c := range chunk {
			b, err := randScalar()
			if err != nil {
				return nil, err
			}
			scalars = append(scalars, b.Bytes())
			bx, by := curve.ScalarBaseMult(scalars[len(scalars)-1])
			if c {
				// B = bG + A
				bx, by = curve.Add(bx, by, ax, ay)
			}
			out = appendMsg(out, elliptic.Marshal(curve, bx, by))
		}
		if _, err := conn.Write(out); err != nil {
			return nil, err
		}
		for i, b := range scalars {
			kx, ky := curve.ScalarMult(ax, ay, b)
			keys[lo+i] = hashPoint(kx, ky)
		}
	}
	return keys, nil
}
