package ot

import (
	"bytes"
	"crypto/elliptic"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/big"
	"runtime"
	"slices"
	"strings"
	"testing"

	"arm2gc/internal/gc"
	"arm2gc/internal/wire"
)

// The roles a peer can face, each with the input sizes the hostile tests
// and the fuzzer run it at: the two base-OT halves, the two whole
// transfers (base OTs plus one extension), and the two extension-only
// halves a session runs on an epoch its connection already holds.
const (
	roleBaseSender = iota
	roleBaseReceiver
	roleSendLabels
	roleReceiveLabels
	roleExtendSend
	roleExtendReceive
	numRoles

	hostileN = 5  // base OTs of the two base roles
	hostileM = 20 // labels of the two extension roles
)

// runRole runs one role against conn and returns its error.
func runRole(role int, conn io.ReadWriter) error {
	switch role {
	case roleBaseSender:
		_, err := baseSenderKeys(conn, hostileN)
		return err
	case roleBaseReceiver:
		_, err := baseReceiverKeys(conn, make([]bool, hostileN))
		return err
	case roleSendLabels:
		return SendLabels(conn, make([][2]gc.Label, hostileM))
	case roleReceiveLabels:
		_, err := ReceiveLabels(conn, make([]bool, hostileM))
		return err
	case roleExtendSend:
		b := &SenderBase{epoch: Epoch{1}, n: 1}
		return b.Extend(conn, []byte("session"), make([][2]gc.Label, hostileM))
	default:
		b := &ReceiverBase{epoch: Epoch{1}, n: 1}
		_, err := b.Extend(conn, []byte("session"), make([]bool, hostileM))
		return err
	}
}

// runRoleCountingBytes is runRole plus the heap bytes allocated meanwhile:
// a role's own working set is a few hundred KB at most, whatever lengths
// the stream announces.
func runRoleCountingBytes(role int, conn io.ReadWriter) (allocated uint64, err error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = runRole(role, conn)
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, err
}

// peerFrame is one OT frame the peer of a role sends: the messages it
// carries (points, correction columns, the ciphertext block — the units
// the protocol reasons in) and the index the role's errors give it.
type peerFrame struct {
	idx  int
	msgs [][]byte
}

// peerScript is a well-formed frame sequence for the peer of role: valid
// curve points where points are due, zeros of the right length elsewhere.
// None of it can be told from an honest peer's stream by the role reading
// it, so the role runs to completion on it.
func peerScript(role int) []peerFrame {
	point := elliptic.Marshal(curve, curve.Params().Gx, curve.Params().Gy)
	points := func(n int) []peerFrame {
		var out []peerFrame
		for i := 0; i < n; i++ {
			if i%pointsPerFrame == 0 {
				out = append(out, peerFrame{idx: i / pointsPerFrame})
			}
			// Distinct points: i+2 times the generator.
			x, y := curve.ScalarBaseMult(big.NewInt(int64(i + 2)).Bytes())
			out[len(out)-1].msgs = append(out[len(out)-1].msgs, elliptic.Marshal(curve, x, y))
		}
		return out
	}
	cols := make([][]byte, kappa)
	for j := range cols {
		cols[j] = make([]byte, (hostileM+7)/8)
	}
	ciphertexts := peerFrame{msgs: [][]byte{make([]byte, hostileM*32)}}
	switch role {
	case roleBaseSender:
		return points(hostileN)
	case roleBaseReceiver:
		return []peerFrame{{msgs: [][]byte{point}}}
	case roleSendLabels:
		return []peerFrame{{msgs: [][]byte{point}}, {msgs: cols}}
	case roleReceiveLabels:
		return append(points(kappa), ciphertexts)
	case roleExtendSend:
		return []peerFrame{{msgs: cols}}
	default:
		return []peerFrame{ciphertexts}
	}
}

// peerMsg locates one message of a script in its encoded stream.
type peerMsg struct {
	frame    int // index of the frame carrying it
	hdr      int // stream offset of that frame's header
	frameLen int // that frame's payload length
	off, len int // the message's own stream offset and length
}

// encode frames a script and locates each of its messages in the stream.
func encode(script []peerFrame) ([]byte, []peerMsg) {
	var stream []byte
	var msgs []peerMsg
	for f, fr := range script {
		n := 0
		for _, m := range fr.msgs {
			n += len(m)
		}
		hdr := len(stream)
		stream = wire.AppendHeader(stream, wire.OT, n)
		for _, m := range fr.msgs {
			msgs = append(msgs, peerMsg{frame: f, hdr: hdr, frameLen: n, off: len(stream), len: len(m)})
			stream = append(stream, m...)
		}
	}
	return stream, msgs
}

// scriptedPeer plays a byte stream to the role under test and discards
// what the role writes. A Read past the end of the stream is the peer
// having hung up.
type scriptedPeer struct {
	r     *bytes.Reader
	reads int // bytes delivered
}

func (p *scriptedPeer) Read(b []byte) (int, error) {
	n, err := p.r.Read(b)
	p.reads += n
	return n, err
}

func (p *scriptedPeer) Write(b []byte) (int, error) { return len(b), nil }

func TestHonestScriptsComplete(t *testing.T) {
	for role := 0; role < numRoles; role++ {
		stream, _ := encode(peerScript(role))
		peer := &scriptedPeer{r: bytes.NewReader(stream)}
		if err := runRole(role, peer); err != nil {
			t.Errorf("role %d: %v", role, err)
		}
		if peer.reads != len(stream) {
			t.Errorf("role %d: consumed %d of %d bytes", role, peer.reads, len(stream))
		}
	}
}

// TestHostilePeer feeds every role a stream that goes wrong at a chosen
// message k (a point, a correction column, the ciphertext block): the
// header of the frame carrying it announcing a wrong length or type, the
// stream cut inside the message, or cut just before it. Each
// must be an error naming that frame — and, for the header cases, an error
// raised before reading a byte past the header, so a peer that announces
// a wrong frame and then stalls cannot hold the role.
func TestHostilePeer(t *testing.T) {
	for role := 0; role < numRoles; role++ {
		script := peerScript(role)
		honest, msgs := encode(script)
		for _, k := range slices.Compact([]int{0, len(msgs) / 2, len(msgs) - 1}) {
			m := msgs[k]
			idx := script[m.frame].idx
			name := func(kind string) string { return fmt.Sprintf("role %d/%s at %d", role, kind, k) }

			for kind, announced := range map[string]uint32{
				"over-long":   uint32(m.frameLen + 1),
				"absurd":      0xFFFFFFFF,
				"quarter-GiB": 1 << 28,
				"short":       uint32(m.frameLen - 1),
			} {
				t.Run(name(kind), func(t *testing.T) {
					stream := bytes.Clone(honest)
					binary.LittleEndian.PutUint32(stream[m.hdr+1:], announced)
					grew, err := runRoleCountingBytes(role, &scriptedPeer{r: bytes.NewReader(stream)})
					wantIndexed(t, err, idx)
					if grew > 4<<20 {
						t.Errorf("allocated %d bytes on a peer announcing %d", grew, announced)
					}
				})
			}

			// Only the bad header arrives; the next Read would block forever
			// on a live connection, so it fails the test.
			for kind, edit := range map[string]func(h []byte){
				"stalls after wrong prefix": func(h []byte) { binary.LittleEndian.PutUint32(h[1:], uint32(m.frameLen+1)) },
				"stalls after wrong type":   func(h []byte) { h[0] = wire.Tables },
			} {
				t.Run(name(kind), func(t *testing.T) {
					stream := bytes.Clone(honest[:m.hdr+wire.HeaderLen])
					edit(stream[m.hdr:])
					err := runRole(role, &stallingPeer{t: t, r: bytes.NewReader(stream)})
					wantIndexed(t, err, idx)
				})
			}

			t.Run(name("truncated"), func(t *testing.T) {
				err := runRole(role, &scriptedPeer{r: bytes.NewReader(honest[:m.off+m.len/2])})
				wantIndexed(t, err, idx)
				if !errors.Is(err, io.ErrUnexpectedEOF) {
					t.Errorf("error %v does not wrap io.ErrUnexpectedEOF", err)
				}
			})

			t.Run(name("EOF"), func(t *testing.T) {
				// The stream ends just before message k — before its frame's
				// header too, when k opens the frame.
				cut := m.off
				if cut == m.hdr+wire.HeaderLen {
					cut = m.hdr
				}
				err := runRole(role, &scriptedPeer{r: bytes.NewReader(honest[:cut])})
				wantIndexed(t, err, idx)
				if !errors.Is(err, io.ErrUnexpectedEOF) {
					t.Errorf("error %v does not wrap io.ErrUnexpectedEOF", err)
				}
			})
		}
	}
}

// wantIndexed checks err is an error naming frame idx of its kind.
func wantIndexed(t *testing.T, err error, idx int) {
	t.Helper()
	if err == nil {
		t.Fatal("accepted")
	}
	if want := fmt.Sprintf(" %d:", idx); !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not name message %d", err, idx)
	}
}

// stallingPeer is a peer that stops sending: reading past its stream is a
// hang on a real connection.
type stallingPeer struct {
	t *testing.T
	r *bytes.Reader
}

func (p *stallingPeer) Read(b []byte) (int, error) {
	if p.r.Len() == 0 {
		p.t.Error("kept reading after the bad header: a live peer could stall here forever")
		return 0, io.EOF
	}
	return p.r.Read(b)
}

func (p *stallingPeer) Write(b []byte) (int, error) { return len(b), nil }

// FuzzOTPeer hands each role an attacker-shaped byte stream as its peer.
// Whatever the bytes, the role returns — an error, or success on a stream
// it cannot tell from an honest one — without panicking, without reading
// past the frames it expects, and without allocating from a length the
// stream announced.
func FuzzOTPeer(f *testing.F) {
	frames := make([]int, numRoles)
	for role := 0; role < numRoles; role++ {
		stream, _ := encode(peerScript(role))
		frames[role] = len(stream)
		f.Add(uint8(role), stream)
		f.Add(uint8(role), stream[:len(stream)/2])
		bad := bytes.Clone(stream)
		binary.LittleEndian.PutUint32(bad[1:], 0xFFFFFFFF)
		f.Add(uint8(role), bad)
	}
	f.Fuzz(func(t *testing.T, r uint8, data []byte) {
		role := int(r) % numRoles
		peer := &scriptedPeer{r: bytes.NewReader(data)}
		grew, err := runRoleCountingBytes(role, peer)
		if err == nil && peer.reads != frames[role] {
			t.Errorf("role %d succeeded on %d bytes; its frames are %d", role, peer.reads, frames[role])
		}
		if peer.reads > frames[role] {
			t.Errorf("role %d read %d bytes, past its %d bytes of frames", role, peer.reads, frames[role])
		}
		if grew > 4<<20 {
			t.Errorf("role %d allocated %d bytes on a %d-byte stream", role, grew, len(data))
		}
	})
}
