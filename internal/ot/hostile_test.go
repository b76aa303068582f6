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
)

// The four roles a peer can face, each with the input sizes the hostile
// tests and the fuzzer run it at.
const (
	roleBaseSender = iota
	roleBaseReceiver
	roleSendLabels
	roleReceiveLabels
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
	default:
		_, err := ReceiveLabels(conn, make([]bool, hostileM))
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

// peerScript is a well-formed message sequence for the peer of role: valid
// curve points where points are due, zeros of the right length elsewhere.
// None of it can be told from an honest peer's stream by the role reading
// it, so the role runs to completion on it.
func peerScript(role int) [][]byte {
	point := elliptic.Marshal(curve, curve.Params().Gx, curve.Params().Gy)
	points := func(n int) [][]byte {
		out := make([][]byte, n)
		for i := range out {
			// Distinct points: i+2 times the generator.
			x, y := curve.ScalarBaseMult(big.NewInt(int64(i + 2)).Bytes())
			out[i] = elliptic.Marshal(curve, x, y)
		}
		return out
	}
	switch role {
	case roleBaseSender:
		return points(hostileN)
	case roleBaseReceiver:
		return [][]byte{point}
	case roleSendLabels:
		msgs := [][]byte{point}
		for j := 0; j < kappa; j++ {
			msgs = append(msgs, make([]byte, (hostileM+7)/8))
		}
		return msgs
	default:
		return append(points(kappa), make([]byte, hostileM*32))
	}
}

func frame(msgs [][]byte) []byte {
	var out []byte
	for _, m := range msgs {
		out = appendMsg(out, m)
	}
	return out
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
		stream := frame(peerScript(role))
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
// message: a prefix one too long, an absurd prefix, a stream cut inside
// the payload, a stream cut on the message boundary. Each must be an error
// naming that message — and, for the prefix cases, an error raised before
// reading a byte past the prefix, so a peer that announces a wrong length
// and then stalls cannot hold the role.
func TestHostilePeer(t *testing.T) {
	for role := 0; role < numRoles; role++ {
		msgs := peerScript(role)
		for _, k := range slices.Compact([]int{0, len(msgs) / 2, len(msgs) - 1}) {
			before := len(frame(msgs[:k]))
			// Message indices restart per flight: the extension roles
			// read one message (or kappa) in the base phase first.
			idx := k
			switch {
			case role == roleSendLabels && k > 0:
				idx = k - 1
			case role == roleReceiveLabels && k == kappa:
				idx = 0
			}
			name := func(kind string) string { return fmt.Sprintf("role %d/%s at %d", role, kind, k) }

			for kind, prefix := range map[string]uint32{
				"over-long":   uint32(len(msgs[k]) + 1),
				"absurd":      0xFFFFFFFF,
				"quarter-GiB": 1 << 28,
				"short":       uint32(len(msgs[k]) - 1),
			} {
				t.Run(name(kind), func(t *testing.T) {
					stream := frame(msgs)
					binary.LittleEndian.PutUint32(stream[before:], prefix)
					grew, err := runRoleCountingBytes(role, &scriptedPeer{r: bytes.NewReader(stream)})
					wantIndexed(t, err, idx)
					if grew > 4<<20 {
						t.Errorf("allocated %d bytes on a peer announcing %d", grew, prefix)
					}
				})
			}

			t.Run(name("stalls after wrong prefix"), func(t *testing.T) {
				// Only the bad prefix arrives; the next Read would block
				// forever on a live connection, so it fails the test.
				stream := frame(msgs)[:before+prefixLen]
				binary.LittleEndian.PutUint32(stream[before:], uint32(len(msgs[k])+1))
				err := runRole(role, &stallingPeer{t: t, r: bytes.NewReader(stream)})
				wantIndexed(t, err, idx)
			})

			t.Run(name("truncated"), func(t *testing.T) {
				cut := before + prefixLen + len(msgs[k])/2
				err := runRole(role, &scriptedPeer{r: bytes.NewReader(frame(msgs)[:cut])})
				wantIndexed(t, err, idx)
				if !errors.Is(err, io.ErrUnexpectedEOF) {
					t.Errorf("error %v does not wrap io.ErrUnexpectedEOF", err)
				}
			})

			t.Run(name("EOF"), func(t *testing.T) {
				err := runRole(role, &scriptedPeer{r: bytes.NewReader(frame(msgs)[:before])})
				wantIndexed(t, err, idx)
				if !errors.Is(err, io.ErrUnexpectedEOF) {
					t.Errorf("error %v does not wrap io.ErrUnexpectedEOF", err)
				}
			})
		}
	}
}

// wantIndexed checks err is an error naming message idx of its flight.
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
		p.t.Error("kept reading after the bad prefix: a live peer could stall here forever")
		return 0, io.EOF
	}
	return p.r.Read(b)
}

func (p *stallingPeer) Write(b []byte) (int, error) { return len(b), nil }

// FuzzOTPeer hands each role an attacker-shaped byte stream as its peer.
// Whatever the bytes, the role returns — an error, or success on a stream
// it cannot tell from an honest one — without panicking, without reading
// past the flights it expects, and without allocating from a length the
// stream announced.
func FuzzOTPeer(f *testing.F) {
	flights := make([]int, numRoles)
	for role := 0; role < numRoles; role++ {
		stream := frame(peerScript(role))
		flights[role] = len(stream)
		f.Add(uint8(role), stream)
		f.Add(uint8(role), stream[:len(stream)/2])
		bad := bytes.Clone(stream)
		binary.LittleEndian.PutUint32(bad, 0xFFFFFFFF)
		f.Add(uint8(role), bad)
	}
	f.Fuzz(func(t *testing.T, r uint8, data []byte) {
		role := int(r) % numRoles
		peer := &scriptedPeer{r: bytes.NewReader(data)}
		grew, err := runRoleCountingBytes(role, peer)
		if err == nil && peer.reads != flights[role] {
			t.Errorf("role %d succeeded on %d bytes; its flights are %d", role, peer.reads, flights[role])
		}
		if peer.reads > flights[role] {
			t.Errorf("role %d read %d bytes, past its %d-byte flights", role, peer.reads, flights[role])
		}
		if grew > 4<<20 {
			t.Errorf("role %d allocated %d bytes on a %d-byte stream", role, grew, len(data))
		}
	})
}
