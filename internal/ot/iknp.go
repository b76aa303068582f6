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

// prg expands a 16-byte seed into n pseudorandom bytes (AES-CTR).
func prg(seed key, n int) []byte {
	block, err := aes.NewCipher(seed[:])
	if err != nil {
		panic("ot: aes: " + err.Error())
	}
	out := make([]byte, n)
	var iv [16]byte
	cipher.NewCTR(block, iv[:]).XORKeyStream(out, out)
	return out
}

// rowHash derives the final OT pad for row i from its 128-bit row value.
func rowHash(i int, row []byte) gc.Label {
	h := sha256.New()
	var idx [8]byte
	binary.LittleEndian.PutUint64(idx[:], uint64(i))
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

// SendLabels obliviously transfers pairs[i][choice_i] for every i: the
// caller is the sender holding the label pairs (the garbler's Bob-input
// wire labels). It learns nothing about the receiver's choices.
func SendLabels(conn io.ReadWriter, pairs [][2]gc.Label) error {
	m := len(pairs)
	if m == 0 {
		return nil
	}
	mBytes := (m + 7) / 8

	// IKNP role reversal: the extension sender is a base-OT receiver with
	// random choice vector s.
	sBits := make([]byte, kappa/8)
	if _, err := rand.Read(sBits); err != nil {
		return err
	}
	sChoices := make([]bool, kappa)
	for j := range sChoices {
		sChoices[j] = sBits[j/8]&(1<<uint(j%8)) != 0
	}
	seeds, err := baseReceiverKeys(conn, sChoices)
	if err != nil {
		return err
	}

	// Receive the correction vectors u_j — one frame of kappa columns —
	// and form q_j = PRG(k_j^{s_j}) ⊕ s_j·u_j.
	cols, err := readMsg(conn, "correction columns", 0, kappa*mBytes)
	if err != nil {
		return err
	}
	qCols := make([][]byte, kappa)
	for j := 0; j < kappa; j++ {
		q := prg(seeds[j], mBytes)
		if sChoices[j] {
			xorBytes(q, q, cols[j*mBytes:(j+1)*mBytes])
		}
		qCols[j] = q
	}
	qRows := transpose(qCols, m)

	// Encrypt both labels of every pair: y_b = x_b ⊕ H(i, q_i ⊕ b·s).
	out := wire.AppendHeader(make([]byte, 0, wire.HeaderLen+m*32), wire.OT, m*32)
	srow := make([]byte, kappa/8)
	for i, p := range pairs {
		pad0 := rowHash(i, qRows[i])
		xorBytes(srow, qRows[i], sBits)
		pad1 := rowHash(i, srow)
		c0 := p[0].Xor(pad0).Bytes()
		c1 := p[1].Xor(pad1).Bytes()
		out = append(out, c0[:]...)
		out = append(out, c1[:]...)
	}
	_, err = conn.Write(out)
	return err
}

// ReceiveLabels obliviously receives one label per choice bit; the sender
// learns nothing about choices and the receiver learns nothing about the
// unchosen labels.
func ReceiveLabels(conn io.ReadWriter, choices []bool) ([]gc.Label, error) {
	m := len(choices)
	if m == 0 {
		return nil, nil
	}
	mBytes := (m + 7) / 8
	r := make([]byte, mBytes)
	for i, c := range choices {
		if c {
			r[i/8] |= 1 << uint(i%8)
		}
	}

	// Base OTs with fresh seed pairs, playing the base sender.
	seedPairs, err := baseSenderKeys(conn, kappa)
	if err != nil {
		return nil, err
	}

	// All kappa correction columns leave in one frame.
	tCols := make([][]byte, kappa)
	cols := wire.AppendHeader(make([]byte, 0, wire.HeaderLen+kappa*mBytes), wire.OT, kappa*mBytes)
	u := make([]byte, mBytes)
	for j := 0; j < kappa; j++ {
		t0 := prg(seedPairs[j][0], mBytes)
		t1 := prg(seedPairs[j][1], mBytes)
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
		pad := rowHash(i, tRows[i])
		off := i * 32
		if choices[i] {
			off += 16
		}
		out[i] = gc.LabelFromBytes(enc[off : off+16]).Xor(pad)
	}
	return out, nil
}
