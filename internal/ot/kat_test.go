package ot

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"net"
	"testing"
)

// katBases builds both halves of one epoch from fixed base keys and a
// fixed s, with no base OTs: kⁱⱼ = SHA-256("arm2gc/ot/kat" ‖ j ‖ i)[:16],
// and s the first 16 bytes of SHA-256("arm2gc/ot/kat/s").
func katBases(t *testing.T) (*SenderBase, *ReceiverBase) {
	t.Helper()
	var keys [kappa][2]key
	for j := range keys {
		for i := range keys[j] {
			var msg [len("arm2gc/ot/kat") + 2]byte
			copy(msg[:], "arm2gc/ot/kat")
			msg[len(msg)-2], msg[len(msg)-1] = byte(j), byte(i)
			sum := sha256.Sum256(msg[:])
			copy(keys[j][i][:], sum[:16])
		}
	}
	var s [kappa / 8]byte
	sum := sha256.Sum256([]byte("arm2gc/ot/kat/s"))
	copy(s[:], sum[:])
	return fixedBases(Epoch{0xa5, 0x5a}, s, keys)
}

// TestExtensionKnownAnswer pins the bytes of the IKNP extension: for two
// consecutive extensions of one epoch (ordinal 0 derives under the zero
// epoch, ordinal 1 names it), the SHA-256 of the receiver's
// correction-column frame, of the sender's ciphertext frame and of the
// received labels. Fixed base keys, s, pairs, choices and session bytes
// make every one of them a function of the extension's definition alone,
// so any reimplementation of the column expansion, the transpose or the
// row hash that changes a bit fails here.
func TestExtensionKnownAnswer(t *testing.T) {
	// Per m, per extension: the correction columns, the ciphertexts, the
	// received labels.
	want := map[int][2][3]string{
		1: {
			{"5de2d6125a3a92e5b839b9a233de9071726b8ee30588d4bb12b4899723a75a39", "a577b83f070d1321659a78c8fad7ebf32964d05e0577c75e90a6bb361682e0de", "fcd372ed76014d6d5c6f536d3c668d60c53af6f933c3747d165a300ffeeafadd"},
			{"265f9ff520b21a26af1ac5879aa9f455f42208c126b561a29fc84b1c548668dc", "c03232ecd3cabbb1350ae446edbd49d16841293074304ee1411ed6e41230c2ae", "5a3995af1ee000590e6153f44487e24fb7b68236b84b1a08ae381e9e56956452"},
		},
		32: {
			{"61005a701d598efb7ae3dc4ac66a3040ef51ded310efe4bb98bf71f2a6c327e7", "c632ba3492abcd51307d29dfb759815d2af32d43ffa229bbdc90eb373c1aa0e4", "885f58dc357cf31920ea4766ba8d9d6c463edeafb2aaef0752b77ce6f1b3c96f"},
			{"64220565321531cf8decc78c45726d5b463453d42fd0b61fbe035bc68ea9b9f0", "b333b0cf60be768e6fb6ac53828a14e2137681d462b802dad221db3392160ee5", "4d9acc57271168c0368e8f2084e7ab19939b978c216803652e56ebe535a77c5d"},
		},
		511: {
			{"fb791cee51631ab966c047890c29e8751813f309bc1a88af2b07adbc8bcfd3a0", "40c7cffcaac5e0f77fd659612eea9bc489d6e50404edd69d42f30186a75dd22e", "f13aff804e10f1315c3984bac4122345e5a9d2fbc0739251d59b1a76737c9a01"},
			{"682d0ed666faa630cb2a45d658e0b008d81680f0cbed14a4587e5f1eef86835a", "68dc93d833cf6a27b25f9616c4569de64a3df78563027718852cc91fc9c1ddfd", "36a845944acb672a07b00a9bc2693a341827fa18ae3e701f4c1172f4fa63648f"},
		},
		512: {
			{"57e4a09f998137cabb5a8d6483aba7b481984be2c837b58abfb7dff2bea87824", "eae9c6d788f8c236f146a7e108b99a185102c48d5940606236b84716767e2f66", "f7c387e5237f68755400f5ccb8c9eceb00f174dc4342c715bd8ec210465f00d5"},
			{"dc9e549dab5dc8af7a5918c561882138b8c3e484a6a639f1fbe4dac30da89f99", "036b2002c5c6592bdf0a76d1b99a352d1a7ac9baad1d7d970856dbb455e9a45b", "02073e70e1b1414d5caf1f38cc39c97cf207873321f9fe157114fbd4de7823c2"},
		},
		800: {
			{"42bfef04fbeb3bbe3022777e2d903e4b299a35031939b678ed54319af1aeff17", "a3411adb7290f9315beed20ac3aa5d4fdae2f89a93c1acf546186d32de9cb3f6", "50960db90cbbdb7e2820d3f16679d0aa1c9105067d151168497b38d8b909fc70"},
			{"630ccf72e33619ee87ffc4f0b887ec7a920a2b4ff29911839635988590529c57", "e4dfb6b3799955f4070d9f0fff573ef7c1245e3903add7073e2256ce80f6cfe0", "e58dbe25bf965bfb5aeb45b9481b659189c2eb8b15ad7a258441454a4b9dbbd7"},
		},
	}
	digest := func(b []byte) string {
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:])
	}
	for _, m := range []int{1, 32, 511, 512, 800} {
		sb, rbase := katBases(t)
		rng := rand.New(rand.NewSource(int64(m)))
		for ext, w := range want[m] {
			pairs, choices := randPairs(rng, m), randChoices(rng, m)
			session := []byte(fmt.Sprintf("kat session %d", ext))
			a, b := net.Pipe()
			ra, rb := &recordingConn{Conn: a}, &recordingConn{Conn: b}
			errc := make(chan error, 1)
			go func() { errc <- sb.Extend(ra, session, pairs) }()
			got, err := rbase.Extend(rb, session, choices)
			if err != nil {
				t.Fatal(err)
			}
			if err := <-errc; err != nil {
				t.Fatal(err)
			}
			a.Close()
			b.Close()
			labels := make([]byte, 0, 16*m)
			for i, l := range got {
				if l != pairs[i][btoi(choices[i])] {
					t.Fatalf("m=%d, extension %d: OT %d delivered the wrong label", m, ext, i)
				}
				labels = binary.LittleEndian.AppendUint64(labels, l.Lo)
				labels = binary.LittleEndian.AppendUint64(labels, l.Hi)
			}
			for k, what := range []string{"correction columns", "ciphertexts", "received labels"} {
				if d := digest([][]byte{rb.sent, ra.sent, labels}[k]); d != w[k] {
					t.Errorf("m=%d, extension %d: %s hash to %s, want %s", m, ext, what, d, w[k])
				}
			}
		}
	}
}
