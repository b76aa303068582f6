package proto

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	mrand "math/rand"
	"net"
	"testing"

	"arm2gc/internal/bencher"
	"arm2gc/internal/circuit"
	"arm2gc/internal/core"
	"arm2gc/internal/cpu"
	"arm2gc/internal/gc"
)

// hammingConfig binds the bencher's Hamming(64) program to its garbled
// processor: the real netlist the repo benchmark runs, small enough for a
// unit test (203 cycles to the halt flag, 186 tables by per-cycle
// SkipGate and 150 on the wire).
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

// goldenDigest runs one session from a fixed label seed and digests
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
// constants, so a refactor that moves every path the same wrong way still
// fails. The budget-edge rows stop the same program at cycle 100, where
// the last cycle classifies with final-cycle fanouts; nothing secret
// reaches an output by then, so the cross-cycle liveness pass leaves them
// no table.
//
// Each row pins two digests. unpruned is the stream of the trace before
// the liveness pass, computed once at the commit before the
// gate-execution kernels were merged; want is the stream sessions send.
// want is cross-checked by deriving it from the unpruned stream: the same
// frames with the tables the pass dropped cut out, each survivor found at
// its gate id.
func TestGoldenWireDigest(t *testing.T) {
	cases := []struct {
		name          string
		cycles, batch int
		halted        bool
		tables        int
		unpruned      string
		want          string
	}{
		{"halting/batch1", 10_000, 1, true, 150,
			"e9dff05fe1ed77269fc66ad64d62bfef5c46d9a5239ef2b983ffb6172859d68e",
			"f337f96df3de7fa3d9ee167fb214ef6e12240eeda413ce3e33c2037ddc4e5d19"},
		{"halting/batch8", 10_000, 8, true, 150,
			"b3987d54b5749d004aef7da975245afc65a6c049c2702e3c70003c12f37aba9f",
			"ceaf9d945866b6bff4e6a211460e0ededff4790cf12b359b453352a8c310b3dc"},
		{"budget-edge/batch1", 100, 1, false, 0,
			"3e6151491f38838c9ba68aa0c12e784e8a05285713f87af6d5f57d6eac1c237d",
			"93bec484155c2a008615f4caef25c3756f352fee9d4f7903d6931bc029f46c3a"},
		{"budget-edge/batch8", 100, 8, false, 0,
			"e4ba8a21402df346a01f87e9be675e9aaf222eee000f0e44f941e2f2c72fc5bd",
			"fd18d40723c87f6bd390a9d354f711caae70d892552b52fa22ed259e59e59145"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg, alice, bob := hammingConfig(t, tc.cycles, tc.batch)
			got, rb := goldenDigest(t, cfg, cfg, alice, bob)
			if rb.Halted != tc.halted {
				t.Fatalf("halted = %v, want %v (after %d cycles)", rb.Halted, tc.halted, rb.Stats.Cycles)
			}
			if got != tc.want || rb.Stats.Tables() != tc.tables {
				t.Errorf("wire digest %s, golden %s (%d cycles, %d tables, want %d, %d frames)",
					got, tc.want, rb.Stats.Cycles, rb.Stats.Tables(), tc.tables, rb.TableFrames)
			}

			// The other ways of producing the stream must hit the same
			// constant: parties handed the compiled trace, and an offline
			// RecordGarbler stream.
			gR, eR := cfg, cfg
			gR.Trace = compileTrace(t, cfg)
			eR.Trace = gR.Trace
			if d, _ := goldenDigest(t, gR, eR, alice, bob); d != tc.want {
				t.Errorf("replayed wire digest %s, golden %s", d, tc.want)
			}
			if d := recordedDigest(t, cfg, alice, nil); d != tc.want {
				t.Errorf("recorded wire digest %s, golden %s", d, tc.want)
			}

			// The trace before the pass still puts the unpruned stream on
			// the wire, and cutting the dropped tables out of that stream
			// gives the pinned one.
			uR := cfg
			uR.Trace = unprunedTrace(t, cfg)
			if d, _ := goldenDigest(t, uR, uR, alice, bob); d != tc.unpruned {
				t.Errorf("unpruned wire digest %s, golden %s", d, tc.unpruned)
			}
			if d := recordedDigest(t, uR, alice, gR.Trace); d != tc.want {
				t.Errorf("derived wire digest %s, golden %s", d, tc.want)
			}
		})
	}
}

// recordedDigest digests an offline RecordGarbler stream of cfg under the
// golden label seed. With pruned set, each table frame is first cut down to
// the tables of pruned's cycles: cfg.Trace's tables at the gate ids
// pruned's cycles keep, in order.
func recordedDigest(t *testing.T, cfg Config, alice []bool, pruned *core.Trace) string {
	t.Helper()
	offline, _, err := RecordGarbler(context.Background(), cfg, alice, mrand.New(mrand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	h.Write(offline.hello)
	h.Write(offline.alice)
	var full, kept []int32
	for i, f := range offline.frames {
		if pruned == nil {
			h.Write(f)
			continue
		}
		var cut []byte
		for cyc := i*cfg.batch() + 1; cyc <= min((i+1)*cfg.batch(), cfg.Trace.NumCycles()); cyc++ {
			full, kept = cfg.Trace.Cycle(cyc).TableGates(full[:0]), pruned.Cycle(cyc).TableGates(kept[:0])
			j := 0
			for _, g := range kept {
				for j < len(full) && full[j] != g {
					j++
				}
				if j == len(full) {
					t.Fatalf("cycle %d: kept gate %d has no unpruned table", cyc, g)
				}
				cut = append(cut, f[j*gc.TableBytes:(j+1)*gc.TableBytes]...)
				j++
			}
			f = f[len(full)*gc.TableBytes:]
		}
		if len(f) != 0 {
			t.Fatalf("frame %d: %d bytes past its cycles' tables", i, len(f))
		}
		h.Write(cut)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// unprunedTrace compiles cfg's run as the recorder finishes it, before
// Compile's cross-cycle liveness pass: a scheduler stepped to the halt
// flag or the budget, every cycle recorded.
func unprunedTrace(t *testing.T, cfg Config) *core.Trace {
	t.Helper()
	c := cfg.Circuit
	s := core.NewScheduler(c, core.Seed{}, cfg.Public)
	rec := core.NewTraceRecorder(s)
	stop := c.ResolveOutput(c.FindOutput(cfg.StopOutput).Wires[0])
	for cyc := 1; ; cyc++ {
		final := cyc == cfg.Cycles
		cs := s.Classify(final)
		v, public := s.WireState(stop)
		halted := public && v
		rec.RecordCycle(cs, halted)
		if halted || final {
			return rec.Finish(halted)
		}
		s.Commit()
	}
}
