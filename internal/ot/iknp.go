package ot

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"io"

	"arm2gc/internal/gc"
	"arm2gc/internal/wire"
)

// kappa is the computational security parameter: the number of base OTs
// and the width of the IKNP matrix.
const kappa = 128

// newPRG expands a base key's AES-128 schedule. A base state does it
// once per key when it is built, so an extension pays only the block
// encryptions of its columns.
func newPRG(k key) cipher.Block {
	block, err := aes.NewCipher(k[:])
	if err != nil {
		panic("ot: aes: " + err.Error())
	}
	return block
}

// ctrScratch holds prg's counter and keystream blocks. It lives in the
// base state: a local array handed to cipher.Block would escape to the
// heap on every call.
type ctrScratch struct{ ctr, ks [16]byte }

// prg fills dst with the keystream of AES-CTR under a base key's block,
// counting from nonce as cipher.NewCTR does (a big-endian 128-bit
// counter): a PRF of the key over the nonce, so every extension of an
// epoch draws fresh columns from the same keys. Whole blocks are
// encrypted straight into dst.
func (c *ctrScratch) prg(block cipher.Block, nonce [16]byte, dst []byte) {
	hi := binary.BigEndian.Uint64(nonce[:8])
	lo := binary.BigEndian.Uint64(nonce[8:])
	for len(dst) > 0 {
		binary.BigEndian.PutUint64(c.ctr[:8], hi)
		binary.BigEndian.PutUint64(c.ctr[8:], lo)
		if len(dst) >= 16 {
			block.Encrypt(dst, c.ctr[:])
			dst = dst[16:]
		} else {
			block.Encrypt(c.ks[:], c.ctr[:])
			dst = dst[copy(dst, c.ks[:]):]
		}
		if lo++; lo == 0 {
			hi++
		}
	}
}

// rowHash derives the final OT pad for row i of the extension with the
// given tweak from its 128-bit row value: the first 16 bytes of
// SHA-256(tweak ‖ LE64(i) ‖ row). The tweak keeps the pads of two
// extensions of one epoch apart, which share the sender's s.
func rowHash(tweak [16]byte, i int, row []byte) gc.Label {
	var buf [40]byte
	copy(buf[:16], tweak[:])
	binary.LittleEndian.PutUint64(buf[16:24], uint64(i))
	copy(buf[24:], row)
	sum := sha256.Sum256(buf[:])
	return gc.LabelFromBytes(sum[:16])
}

// transpose converts kappa columns of m bits, each ⌈m/8⌉ bytes and stored
// one after another in cols (bit i of a column is bit i%8 of its byte
// i/8), into m rows of kappa bits, 16 bytes each, one after another in
// rows. It moves 8×8-bit tiles: one byte of eight neighbouring columns is
// eight bits of eight neighbouring rows. The padding bits past m in each
// column's last byte are dropped.
func transpose(rows, cols []byte, m int) {
	mBytes := (m + 7) / 8
	for jb := 0; jb < kappa/8; jb++ {
		var c [8][]byte
		for k := range c {
			c[k] = cols[(8*jb+k)*mBytes:][:mBytes]
		}
		for ib := range c[0] {
			x := transpose8(uint64(c[0][ib]) | uint64(c[1][ib])<<8 | uint64(c[2][ib])<<16 | uint64(c[3][ib])<<24 |
				uint64(c[4][ib])<<32 | uint64(c[5][ib])<<40 | uint64(c[6][ib])<<48 | uint64(c[7][ib])<<56)
			i := 8 * ib
			if m-i < 8 {
				for ; i < m; i, x = i+1, x>>8 {
					rows[i*16+jb] = byte(x)
				}
				continue
			}
			r := rows[i*16+jb:][:7*16+1]
			r[0], r[16], r[32], r[48] = byte(x), byte(x>>8), byte(x>>16), byte(x>>24)
			r[64], r[80], r[96], r[112] = byte(x>>32), byte(x>>40), byte(x>>48), byte(x>>56)
		}
	}
}

// transpose8 transposes the 8×8 bit matrix whose row k is byte k of x (bit
// c of byte k goes to bit k of byte c), by swapping 1×1, then 2×2, then
// 4×4 blocks across the diagonal.
func transpose8(x uint64) uint64 {
	t := (x ^ x>>7) & 0x00aa00aa00aa00aa
	x ^= t ^ t<<7
	t = (x ^ x>>14) & 0x0000cccc0000cccc
	x ^= t ^ t<<14
	t = (x ^ x>>28) & 0x00000000f0f0f0f0
	return x ^ t ^ t<<28
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
// learnt, each held as its expanded AES schedule (512 B a key, 64 KiB an
// epoch). It is not safe for concurrent use; one connection's sessions
// extend it in turn.
type SenderBase struct {
	epoch Epoch
	s     [kappa / 8]byte
	prg   [kappa]cipher.Block // G(kˢʲⱼ)
	ctr   ctrScratch
	n     uint64 // extensions so far
}

// newSenderBase is the sender's base state of an epoch from its choice
// vector s and the kappa keys kˢʲⱼ it chose.
func newSenderBase(epoch Epoch, s [kappa / 8]byte, keys []key) *SenderBase {
	b := &SenderBase{epoch: epoch, s: s}
	for j := range b.prg {
		b.prg[j] = newPRG(keys[j])
	}
	return b
}

// NewSenderBase runs the kappa base OTs over conn as the extension sender
// — IKNP's role reversal makes it the base-OT receiver, with a random
// choice vector s — and returns the epoch's base state under the given id.
func NewSenderBase(conn io.ReadWriter, epoch Epoch) (*SenderBase, error) {
	var s [kappa / 8]byte
	if _, err := rand.Read(s[:]); err != nil {
		return nil, err
	}
	choices := make([]bool, kappa)
	for j := range choices {
		choices[j] = s[j/8]&(1<<uint(j%8)) != 0
	}
	keys, err := baseReceiverKeys(conn, choices)
	if err != nil {
		return nil, err
	}
	return newSenderBase(epoch, s, keys), nil
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

	// G(kˢʲⱼ) needs nothing from the receiver: expand it while the
	// correction columns are on their way.
	q := make([]byte, kappa*mBytes)
	for j, g := range b.prg {
		b.ctr.prg(g, nonce, q[j*mBytes:(j+1)*mBytes])
	}

	// Receive the correction vectors u_j — one frame of kappa columns —
	// and form q_j = G(kˢʲⱼ) ⊕ s_j·u_j.
	u, err := readMsg(conn, "correction columns", 0, kappa*mBytes)
	if err != nil {
		return err
	}
	for j := 0; j < kappa; j++ {
		if b.s[j/8]&(1<<uint(j%8)) != 0 {
			col := q[j*mBytes : (j+1)*mBytes]
			subtle.XORBytes(col, col, u[j*mBytes:(j+1)*mBytes])
		}
	}
	rows := make([]byte, m*kappa/8)
	transpose(rows, q, m)

	// Encrypt both labels of every pair: y_b = x_b ⊕ H(tweak, i, q_i ⊕ b·s).
	out := wire.AppendHeader(make([]byte, 0, wire.HeaderLen+m*32), wire.OT, m*32)
	for i, p := range pairs {
		row := rows[i*kappa/8 : (i+1)*kappa/8]
		var srow [kappa / 8]byte
		subtle.XORBytes(srow[:], row, b.s[:])
		c0 := p[0].Xor(rowHash(tweak, i, row)).Bytes()
		c1 := p[1].Xor(rowHash(tweak, i, srow[:])).Bytes()
		out = append(out, c0[:]...)
		out = append(out, c1[:]...)
	}
	_, err = conn.Write(out)
	return err
}

// ReceiverBase is the extension receiver's half of one epoch: both keys
// (k⁰ⱼ, k¹ⱼ) of every base OT, which it played as the base-OT sender,
// each held as its expanded AES schedule (128 KiB an epoch). It is not
// safe for concurrent use.
type ReceiverBase struct {
	epoch Epoch
	prg   [kappa][2]cipher.Block // G(k⁰ⱼ), G(k¹ⱼ)
	ctr   ctrScratch
	n     uint64 // extensions so far
}

// newReceiverBase is the receiver's base state of an epoch from its kappa
// key pairs.
func newReceiverBase(epoch Epoch, keys [][2]key) *ReceiverBase {
	b := &ReceiverBase{epoch: epoch}
	for j := range b.prg {
		b.prg[j] = [2]cipher.Block{newPRG(keys[j][0]), newPRG(keys[j][1])}
	}
	return b
}

// NewReceiverBase runs the kappa base OTs over conn as the extension
// receiver — the base-OT sender, with fresh key pairs — and returns the
// epoch's base state under the given id.
func NewReceiverBase(conn io.ReadWriter, epoch Epoch) (*ReceiverBase, error) {
	keys, err := baseSenderKeys(conn, kappa)
	if err != nil {
		return nil, err
	}
	return newReceiverBase(epoch, keys), nil
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

	// All kappa correction columns u_j = t0_j ⊕ t1_j ⊕ r leave in one
	// frame; the t0_j stay behind as the receiver's columns.
	t := make([]byte, kappa*mBytes)
	frame := wire.AppendHeader(make([]byte, 0, wire.HeaderLen+kappa*mBytes), wire.OT, kappa*mBytes)
	frame = frame[:cap(frame)]
	for j, g := range b.prg {
		t0, u := t[j*mBytes:(j+1)*mBytes], frame[wire.HeaderLen+j*mBytes:][:mBytes]
		b.ctr.prg(g[0], nonce, t0)
		b.ctr.prg(g[1], nonce, u)
		subtle.XORBytes(u, u, t0)
		subtle.XORBytes(u, u, r)
	}
	if _, err := conn.Write(frame); err != nil {
		return nil, err
	}

	// The row pads H(tweak, i, t_i) need nothing from the sender. They run
	// while its ciphertexts are on their way only once the frame above has
	// left: a session's flight (wire.Flight) holds a frame under 2 KiB
	// (fewer than 128 choice bits) until the read below.
	rows := make([]byte, m*kappa/8)
	transpose(rows, t, m)
	out := make([]gc.Label, m)
	for i := range out {
		out[i] = rowHash(tweak, i, rows[i*kappa/8:(i+1)*kappa/8])
	}

	enc, err := readMsg(conn, "label ciphertexts", 0, m*32)
	if err != nil {
		return nil, err
	}
	for i, c := range choices {
		off := i * 32
		if c {
			off += 16
		}
		out[i] = out[i].Xor(gc.LabelFromBytes(enc[off : off+16]))
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
