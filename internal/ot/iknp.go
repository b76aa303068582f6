package ot

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"io"

	"arm2gc/internal/gc"
	"arm2gc/internal/wire"
)

// kappa is the computational security parameter: the number of base OTs
// and the width of the IKNP matrix.
const kappa = 128

// prg expands a base key into n pseudorandom bytes under an extension's
// nonce: AES-CTR keyed by the base key, counting from the nonce — a PRF of
// the key over the nonce, so every extension of an epoch draws fresh
// columns from the same keys.
func prg(k key, nonce [16]byte, n int) []byte {
	block, err := aes.NewCipher(k[:])
	if err != nil {
		panic("ot: aes: " + err.Error())
	}
	out := make([]byte, n)
	cipher.NewCTR(block, nonce[:]).XORKeyStream(out, out)
	return out
}

// rowHash derives the final OT pad for row i of the extension with the
// given tweak from its 128-bit row value. The tweak keeps the pads of two
// extensions of one epoch apart, which share the sender's s.
func rowHash(tweak [16]byte, i int, row []byte) gc.Label {
	h := sha256.New()
	var idx [8]byte
	binary.LittleEndian.PutUint64(idx[:], uint64(i))
	h.Write(tweak[:])
	h.Write(idx[:])
	h.Write(row)
	sum := h.Sum(nil)
	return gc.LabelFromBytes(sum[:16])
}

func xorBytes(dst, a, b []byte) {
	for i := range dst {
		dst[i] = a[i] ^ b[i]
	}
}

// transpose converts kappa column bit-vectors of m bits into m rows of
// kappa bits (16 bytes per row).
func transpose(cols [][]byte, m int) [][]byte {
	rows := make([][]byte, m)
	flat := make([]byte, m*kappa/8)
	for i := range rows {
		rows[i] = flat[i*kappa/8 : (i+1)*kappa/8]
	}
	for j, col := range cols {
		byteJ, bitJ := j/8, uint(j%8)
		for i := 0; i < m; i++ {
			if col[i/8]&(1<<uint(i%8)) != 0 {
				rows[i][byteJ] |= 1 << bitJ
			}
		}
	}
	return rows
}

// Epoch names one run of the base OTs on a connection, so that later
// sessions can extend it instead of running their own. The zero Epoch
// names none.
type Epoch [16]byte

// NewEpoch draws a fresh, non-zero epoch id.
func NewEpoch() (Epoch, error) {
	var e Epoch
	for e == (Epoch{}) {
		if _, err := rand.Read(e[:]); err != nil {
			return Epoch{}, err
		}
	}
	return e, nil
}

// derive computes an extension's public nonce and row-hash tweak from its
// epoch, the caller's session bytes and its ordinal n among the epoch's
// extensions. Extension 0 runs in the session that ran the base OTs, and
// derives under the zero epoch: a party that never learnt the id (an
// evaluator running a bare session) must derive the same bytes, and the
// keys are fresh anyway. Every later extension names the epoch.
func derive(epoch Epoch, n uint64, session []byte) (nonce, tweak [16]byte) {
	if n == 0 {
		epoch = Epoch{}
	}
	h := sha256.New()
	h.Write([]byte("arm2gc/ot/extend"))
	h.Write(epoch[:])
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(len(session)))
	h.Write(buf[:])
	h.Write(session)
	binary.LittleEndian.PutUint64(buf[:], n)
	h.Write(buf[:])
	sum := h.Sum(nil)
	copy(nonce[:], sum[:16])
	copy(tweak[:], sum[16:])
	return nonce, tweak
}

// SenderBase is the extension sender's half of one epoch: the random
// choice vector s it played as the base-OT receiver and the keys kˢʲⱼ it
// learnt. It is not safe for concurrent use; one connection's sessions
// extend it in turn.
type SenderBase struct {
	epoch Epoch
	s     [kappa / 8]byte
	keys  [kappa]key
	n     uint64 // extensions so far
}

// NewSenderBase runs the kappa base OTs over conn as the extension sender
// — IKNP's role reversal makes it the base-OT receiver, with a random
// choice vector s — and returns the epoch's base state under the given id.
func NewSenderBase(conn io.ReadWriter, epoch Epoch) (*SenderBase, error) {
	b := &SenderBase{epoch: epoch}
	if _, err := rand.Read(b.s[:]); err != nil {
		return nil, err
	}
	choices := make([]bool, kappa)
	for j := range choices {
		choices[j] = b.s[j/8]&(1<<uint(j%8)) != 0
	}
	keys, err := baseReceiverKeys(conn, choices)
	if err != nil {
		return nil, err
	}
	copy(b.keys[:], keys)
	return b, nil
}

// Epoch returns the id the base state was created under.
func (b *SenderBase) Epoch() Epoch { return b.epoch }

// Extend obliviously transfers pairs[i][choice_i] for every i: the caller
// is the sender holding the label pairs (the garbler's Bob-input wire
// labels), and learns nothing about the receiver's choices. session is the
// public context both parties bind the extension to (the protocol passes
// its hello payload: the session id and the garbler's fresh seed); the
// receiver's Extend must be its peer, on a ReceiverBase of the same epoch
// extended as often.
func (b *SenderBase) Extend(conn io.ReadWriter, session []byte, pairs [][2]gc.Label) error {
	m := len(pairs)
	if m == 0 {
		return nil
	}
	nonce, tweak := derive(b.epoch, b.n, session)
	b.n++
	mBytes := (m + 7) / 8

	// Receive the correction vectors u_j — one frame of kappa columns —
	// and form q_j = G(k_j^{s_j}) ⊕ s_j·u_j.
	cols, err := readMsg(conn, "correction columns", 0, kappa*mBytes)
	if err != nil {
		return err
	}
	qCols := make([][]byte, kappa)
	for j := 0; j < kappa; j++ {
		q := prg(b.keys[j], nonce, mBytes)
		if b.s[j/8]&(1<<uint(j%8)) != 0 {
			xorBytes(q, q, cols[j*mBytes:(j+1)*mBytes])
		}
		qCols[j] = q
	}
	qRows := transpose(qCols, m)

	// Encrypt both labels of every pair: y_b = x_b ⊕ H(tweak, i, q_i ⊕ b·s).
	out := wire.AppendHeader(make([]byte, 0, wire.HeaderLen+m*32), wire.OT, m*32)
	srow := make([]byte, kappa/8)
	for i, p := range pairs {
		pad0 := rowHash(tweak, i, qRows[i])
		xorBytes(srow, qRows[i], b.s[:])
		pad1 := rowHash(tweak, i, srow)
		c0 := p[0].Xor(pad0).Bytes()
		c1 := p[1].Xor(pad1).Bytes()
		out = append(out, c0[:]...)
		out = append(out, c1[:]...)
	}
	_, err = conn.Write(out)
	return err
}

// ReceiverBase is the extension receiver's half of one epoch: both keys
// (k⁰ⱼ, k¹ⱼ) of every base OT, which it played as the base-OT sender. It
// is not safe for concurrent use.
type ReceiverBase struct {
	epoch Epoch
	keys  [kappa][2]key
	n     uint64 // extensions so far
}

// NewReceiverBase runs the kappa base OTs over conn as the extension
// receiver — the base-OT sender, with fresh key pairs — and returns the
// epoch's base state under the given id.
func NewReceiverBase(conn io.ReadWriter, epoch Epoch) (*ReceiverBase, error) {
	keys, err := baseSenderKeys(conn, kappa)
	if err != nil {
		return nil, err
	}
	b := &ReceiverBase{epoch: epoch}
	copy(b.keys[:], keys)
	return b, nil
}

// Epoch returns the id the base state was created under.
func (b *ReceiverBase) Epoch() Epoch { return b.epoch }

// Extend obliviously receives one label per choice bit; the sender learns
// nothing about choices and the receiver learns nothing about the
// unchosen labels. session is as for SenderBase.Extend.
func (b *ReceiverBase) Extend(conn io.ReadWriter, session []byte, choices []bool) ([]gc.Label, error) {
	m := len(choices)
	if m == 0 {
		return nil, nil
	}
	nonce, tweak := derive(b.epoch, b.n, session)
	b.n++
	mBytes := (m + 7) / 8
	r := make([]byte, mBytes)
	for i, c := range choices {
		if c {
			r[i/8] |= 1 << uint(i%8)
		}
	}

	// All kappa correction columns leave in one frame.
	tCols := make([][]byte, kappa)
	cols := wire.AppendHeader(make([]byte, 0, wire.HeaderLen+kappa*mBytes), wire.OT, kappa*mBytes)
	u := make([]byte, mBytes)
	for j := 0; j < kappa; j++ {
		t0 := prg(b.keys[j][0], nonce, mBytes)
		t1 := prg(b.keys[j][1], nonce, mBytes)
		tCols[j] = t0
		// u_j = t0 ⊕ t1 ⊕ r
		xorBytes(u, t0, t1)
		xorBytes(u, u, r)
		cols = append(cols, u...)
	}
	if _, err := conn.Write(cols); err != nil {
		return nil, err
	}
	tRows := transpose(tCols, m)

	enc, err := readMsg(conn, "label ciphertexts", 0, m*32)
	if err != nil {
		return nil, err
	}
	out := make([]gc.Label, m)
	for i := range out {
		pad := rowHash(tweak, i, tRows[i])
		off := i * 32
		if choices[i] {
			off += 16
		}
		out[i] = gc.LabelFromBytes(enc[off : off+16]).Xor(pad)
	}
	return out, nil
}

// SendLabels is SenderBase.Extend over a fresh base state that nobody
// keeps: the base OTs, then one extension.
func SendLabels(conn io.ReadWriter, pairs [][2]gc.Label) error {
	if len(pairs) == 0 {
		return nil
	}
	b, err := NewSenderBase(conn, Epoch{})
	if err != nil {
		return err
	}
	return b.Extend(conn, nil, pairs)
}

// ReceiveLabels is ReceiverBase.Extend over a fresh base state that
// nobody keeps: the peer of SendLabels.
func ReceiveLabels(conn io.ReadWriter, choices []bool) ([]gc.Label, error) {
	if len(choices) == 0 {
		return nil, nil
	}
	b, err := NewReceiverBase(conn, Epoch{})
	if err != nil {
		return nil, err
	}
	return b.Extend(conn, nil, choices)
}
