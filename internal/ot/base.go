// Package ot implements 1-out-of-2 oblivious transfer for the
// honest-but-curious model: a Diffie-Hellman base OT on NIST P-256 (in the
// style of Naor-Pinkas/Chou-Orlandi simplified for passive adversaries)
// and the IKNP OT extension, which turns 128 base OTs into any number of
// label transfers using only symmetric cryptography.
//
// The two halves live apart. A base state — SenderBase on the extension
// sender (the garbler), ReceiverBase on the extension receiver (the
// evaluator) — is one run of the 128 base OTs: an epoch id plus the seed
// keys, (k⁰ⱼ, k¹ⱼ) on the receiver and (s, kˢʲⱼ) on the sender. It
// depends on neither party's input nor the program, so a connection runs
// it once and every later session pays only Extend: each extension
// expands its columns from the seed keys under a nonce derived from the
// epoch, the caller's session bytes and the epoch's extension ordinal, and
// hashes its rows under a tweak derived the same way, so no two
// extensions of one epoch share a column or a row pad. SendLabels and
// ReceiveLabels are a fresh base state plus one Extend.
//
// All protocols run over an io.ReadWriter; the two parties call the
// matching functions on the two ends of a connection (net.Pipe in tests,
// TCP in the protocol layer). Every message is one wire.OT frame,
// assembled in one buffer and written in one write.
//
// Every frame's length is fixed by the protocol and the caller's own input
// size, so each is read at its exact expected length: a header announcing
// anything else is refused before the payload is read, nothing here sizes
// an allocation from a length read off the wire, and no read goes past
// the end of a frame.
package ot

import (
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"fmt"
	"io"
	"math/big"

	"arm2gc/internal/wire"
)

type key = [16]byte

// curve is the base-OT group.
var curve = elliptic.P256()

const (
	// pointLen is the uncompressed encoding of a P-256 point, the unit of
	// every base-OT message.
	pointLen = 65

	// coordLen is one P-256 coordinate at its fixed width.
	coordLen = 32

	// pointsPerFrame is how many of its points the base receiver sends per
	// frame: small enough that the sender's multiplications on one frame
	// overlap the receiver's on the next, large enough that 128 points
	// cost 16 frames rather than 128.
	pointsPerFrame = 8
)

// readMsg reads the OT frame the peer owes next, which must carry exactly
// n bytes; what and i name it in errors. The stream ending anywhere inside
// a phase is unexpected, frame boundary or not.
func readMsg(r io.Reader, what string, i, n int) ([]byte, error) {
	b, err := wire.Read(r, wire.OT, n, n)
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return nil, fmt.Errorf("ot: %s %d: %w", what, i, err)
	}
	return b, nil
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

// hashPoint derives a key from a point's affine coordinates, each
// encoded at its full 32 bytes so the encoding is injective.
func hashPoint(x, y *big.Int) key {
	var buf [2*coordLen + 1]byte
	x.FillBytes(buf[:coordLen])
	buf[coordLen] = 0x1f
	y.FillBytes(buf[coordLen+1:])
	h := sha256.New()
	h.Write(buf[:])
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
	msg := wire.AppendHeader(make([]byte, 0, wire.HeaderLen+pointLen), wire.OT, pointLen)
	if _, err := conn.Write(append(msg, elliptic.Marshal(curve, ax, ay)...)); err != nil {
		return nil, err
	}
	tx, ty := curve.ScalarMult(ax, ay, aBytes)
	negTy := negY(ty)

	// The receiver's points arrive a frame at a time; each frame is used as
	// soon as it is in, so these multiplications overlap the receiver's.
	keys := make([][2]key, n)
	for lo := 0; lo < n; lo += pointsPerFrame {
		k := min(pointsPerFrame, n-lo)
		points, err := readMsg(conn, "base OT points", lo/pointsPerFrame, k*pointLen)
		if err != nil {
			return nil, err
		}
		for i := 0; i < k; i++ {
			bx, by := elliptic.Unmarshal(curve, points[i*pointLen:(i+1)*pointLen])
			if bx == nil {
				return nil, fmt.Errorf("ot: base OT point %d: not a curve point", lo+i)
			}
			keys[lo+i] = senderKeyPair(aBytes, tx, negTy, bx, by)
		}
	}
	return keys, nil
}

// baseReceiverKeys runs n base OTs as the receiver with the given choice
// bits, returning the chosen key of each pair.
func baseReceiverKeys(conn io.ReadWriter, choices []bool) ([]key, error) {
	msg, err := readMsg(conn, "base OT sender point", 0, pointLen)
	if err != nil {
		return nil, err
	}
	ax, ay := elliptic.Unmarshal(curve, msg)
	if ax == nil {
		return nil, fmt.Errorf("ot: base OT sender point: not a curve point")
	}

	// Per frame: the cheap fixed-base half first and out in one write, so
	// the sender can start on the frame, then the variable-base half.
	keys := make([]key, len(choices))
	scalars := make([][]byte, 0, pointsPerFrame)
	out := make([]byte, 0, wire.HeaderLen+pointsPerFrame*pointLen)
	for lo := 0; lo < len(choices); lo += pointsPerFrame {
		chunk := choices[lo:min(lo+pointsPerFrame, len(choices))]
		scalars, out = scalars[:0], wire.AppendHeader(out[:0], wire.OT, len(chunk)*pointLen)
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
			out = append(out, elliptic.Marshal(curve, bx, by)...)
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
