package proto

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	mrand "math/rand"
	"net"
	"testing"

	"arm2gc/internal/bencher"
	"arm2gc/internal/circuit"
	"arm2gc/internal/cpu"
)

// hammingConfig binds the bencher's Hamming(64) program to its garbled
// processor: the real netlist the repo benchmark runs, small enough for a
// unit test (203 cycles and 186 tables to the halt flag).
func hammingConfig(t *testing.T, cycles, batch int) (Config, []bool, []bool) {
	t.Helper()
	w := bencher.HammingWorkload(64)
	p, _, err := w.Program()
	if err != nil {
		t.Fatal(err)
	}
	c, err := cpu.Shared(p.Layout)
	if err != nil {
		t.Fatal(err)
	}
	pub, err := c.PublicBits(p)
	if err != nil {
		t.Fatal(err)
	}
	alice, err := c.InputBits(circuit.Alice, w.Alice)
	if err != nil {
		t.Fatal(err)
	}
	bob, err := c.InputBits(circuit.Bob, w.Bob)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Circuit: c.Circuit, Public: pub, Cycles: cycles, StopOutput: "halted", CycleBatch: batch}
	return cfg, alice, bob
}

// recordingConn keeps every byte the evaluator reads, so the test can cut
// the garbler's first two frames (hello, Alice's labels) out of the raw
// stream; the OT messages behind them are randomized and not digested.
type recordingConn struct {
	net.Conn
	read bytes.Buffer
}

func (c *recordingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read.Write(p[:n])
	return n, err
}

// cutFrame splits one typed frame off the front of a raw byte stream.
func cutFrame(t *testing.T, b []byte, wantType byte) (payload, rest []byte) {
	t.Helper()
	if len(b) < 5 || b[0] != wantType {
		t.Fatalf("stream does not start with a type-%d frame", wantType)
	}
	n := int(binary.LittleEndian.Uint32(b[1:5]))
	if len(b) < 5+n {
		t.Fatalf("type-%d frame truncated", wantType)
	}
	return b[5 : 5+n], b[5+n:]
}

// goldenDigest runs one live session from a fixed label seed and digests
// everything deterministic the garbler put on the wire: the hello payload,
// Alice's active labels, and every table-frame payload in arrival order.
func goldenDigest(t *testing.T, cfgG, cfgE Config, alice, bob []bool) (string, *Result) {
	t.Helper()
	h := sha256.New()
	var tables [][]byte
	cfgE.tapTables = func(p []byte) { tables = append(tables, append([]byte(nil), p...)) }
	ca, cb := net.Pipe()
	defer ca.Close()
	defer cb.Close()
	rc := &recordingConn{Conn: cb}
	ch := make(chan error, 1)
	go func() {
		_, err := RunGarbler(context.Background(), ca, cfgG, alice, mrand.New(mrand.NewSource(42)))
		ch <- err
	}()
	rb, err := RunEvaluator(context.Background(), rc, cfgE, bob)
	if err != nil {
		t.Fatalf("evaluator: %v", err)
	}
	if err := <-ch; err != nil {
		t.Fatalf("garbler: %v", err)
	}
	hello, rest := cutFrame(t, rc.read.Bytes(), msgHello)
	labels, _ := cutFrame(t, rest, msgAliceLabels)
	h.Write(hello)
	h.Write(labels)
	for _, p := range tables {
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil)), rb
}

// TestGoldenWireDigest pins absolute wire bytes. The frame-tap grids
// compare execution paths to each other; this test compares the stream to
// constants computed once, at the commit before the gate-execution kernels
// were merged, so a refactor that moves every path the same wrong way
// still fails. The budget-edge rows stop the same program at cycle 100,
// where the last cycle classifies with final-cycle fanouts.
func TestGoldenWireDigest(t *testing.T) {
	cases := []struct {
		name          string
		cycles, batch int
		halted        bool
		want          string
	}{
		{"halting/batch1", 10_000, 1, true, "e9dff05fe1ed77269fc66ad64d62bfef5c46d9a5239ef2b983ffb6172859d68e"},
		{"halting/batch8", 10_000, 8, true, "b3987d54b5749d004aef7da975245afc65a6c049c2702e3c70003c12f37aba9f"},
		{"budget-edge/batch1", 100, 1, false, "3e6151491f38838c9ba68aa0c12e784e8a05285713f87af6d5f57d6eac1c237d"},
		{"budget-edge/batch8", 100, 8, false, "e4ba8a21402df346a01f87e9be675e9aaf222eee000f0e44f941e2f2c72fc5bd"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg, alice, bob := hammingConfig(t, tc.cycles, tc.batch)
			got, rb := goldenDigest(t, cfg, cfg, alice, bob)
			if rb.Halted != tc.halted {
				t.Fatalf("halted = %v, want %v (after %d cycles)", rb.Halted, tc.halted, rb.Stats.Cycles)
			}
			if got != tc.want {
				t.Errorf("wire digest %s, golden %s (%d cycles, %d tables, %d frames)",
					got, tc.want, rb.Stats.Cycles, rb.Stats.Total.Garbled, rb.TableFrames)
			}

			// The other ways of producing the stream must hit the same
			// constant: a replaying garbler and evaluator, and an offline
			// RecordGarbler stream.
			gR, eR := cfg, cfg
			gR.Trace = compileTrace(t, cfg)
			eR.Trace = gR.Trace
			if d, _ := goldenDigest(t, gR, eR, alice, bob); d != tc.want {
				t.Errorf("replayed wire digest %s, golden %s", d, tc.want)
			}
			offline, _, err := RecordGarbler(context.Background(), cfg, alice, mrand.New(mrand.NewSource(42)))
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			h.Write(offline.hello)
			h.Write(offline.alice)
			for _, f := range offline.frames {
				h.Write(f)
			}
			if d := fmt.Sprintf("%x", h.Sum(nil)); d != tc.want {
				t.Errorf("recorded wire digest %s, golden %s", d, tc.want)
			}
		})
	}
}
