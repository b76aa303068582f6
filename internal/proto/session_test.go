package proto

import (
	"context"
	"net"
	"runtime"
	"testing"

	"arm2gc/internal/bencher"
	"arm2gc/internal/circuit"
	"arm2gc/internal/cpu"
	"arm2gc/internal/obliv"
	"arm2gc/internal/wire"
)

// replayedSessions binds workload w to its garbled processor and prepares
// replayed sessions over one net.Pipe, as a connection serving one
// program runs them: the program's trace is compiled once, a first
// session runs the base OTs, and every session from then on replays the
// trace on both parties and extends the OTs. run plays one more such
// session; stop closes the pipe.
func replayedSessions(tb testing.TB, w *bencher.Workload) (c *circuit.Circuit, run func(), stop func()) {
	tb.Helper()
	p, _, err := w.Program()
	if err != nil {
		tb.Fatal(err)
	}
	m, err := cpu.SharedMem(p.Layout, obliv.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	pub, err := m.PublicBits(p)
	if err != nil {
		tb.Fatal(err)
	}
	alice, err := m.InputBits(circuit.Alice, w.Alice)
	if err != nil {
		tb.Fatal(err)
	}
	bob, err := m.InputBits(circuit.Bob, w.Bob)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := Config{Circuit: m.Circuit, Public: pub, Cycles: 20_000, StopOutput: "halted", CycleBatch: 8}
	cfg.Trace = compileTrace(tb, cfg)

	a, b := net.Pipe()
	gst, est := new(OTState), new(OTState)
	run = func() {
		granted, err := gst.Grant(est.Held())
		if err != nil {
			tb.Fatal(err)
		}
		est.Epoch = granted
		if gerr, eerr, _ := session(cfg, alice, bob, a, b, gst, est); gerr != nil || eerr != nil {
			tb.Fatalf("replayed session: garbler %v, evaluator %v", gerr, eerr)
		}
	}
	run() // the base OTs
	return m.Circuit, run, func() { a.Close(); b.Close() }
}

// TestReplayedSessionAllocs pins what a replayed session costs in heap,
// both parties together: less than one per-wire label array (16 bytes per
// netlist wire). The label arrays span the trace's slots, the circuit's
// gate census is counted once, and the evaluator's stream buffer is the
// stream's size, so nothing a session allocates grows with the netlist.
func TestReplayedSessionAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations are not the session's")
	}
	c, run, stop := replayedSessions(t, bencher.SumWorkload(32))
	defer stop()
	run() // warm: the flights' and the extension's buffers reach their size
	const sessions = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range sessions {
		run()
	}
	runtime.ReadMemStats(&after)
	perSession := int(after.TotalAlloc-before.TotalAlloc) / sessions
	limit := 16 * c.NumWires()
	t.Logf("a replayed session allocates %d B over both parties; one per-wire label array is %d B (%d wires)",
		perSession, limit, c.NumWires())
	if perSession >= limit {
		t.Fatalf("a replayed session allocates %d B, no less than one per-wire label array (%d B)", perSession, limit)
	}
}

// BenchmarkReplayedSession times one replayed session, both parties over
// net.Pipe with the trace and the OTs warm, on a 1-cycle-table program
// (sum32: 31 tables) and a long one (Hamming(512): 1,449 cycles), and
// reports what it allocates:
//
//	go test -run '^$' -bench ReplayedSession -benchmem ./internal/proto
func BenchmarkReplayedSession(b *testing.B) {
	for _, w := range []struct {
		name string
		w    *bencher.Workload
	}{
		{"sum32", bencher.SumWorkload(32)},
		{"hamming512", bencher.HammingWorkload(512)},
	} {
		b.Run(w.name, func(b *testing.B) {
			_, run, stop := replayedSessions(b, w.w)
			defer stop()
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				run()
			}
		})
	}
}

// TestStreamBufferFitsReplayedStream: a replaying evaluator sizes its
// stream buffer to the garbler's side of the stream after the OT — every
// table frame, then the decode frame — as the frames a recording of the
// same session actually holds, for cycle batches that do and do not
// divide the run and in every output mode.
func TestStreamBufferFitsReplayedStream(t *testing.T) {
	for _, batch := range []int{1, 4} {
		for _, mode := range []OutputMode{OutputBoth, OutputGarblerOnly, OutputEvaluatorOnly} {
			cfg, alice, _ := haltingConfig(t, batch)
			cfg.Outputs = mode
			rec, _, err := RecordGarbler(context.Background(), cfg, alice, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := wire.HeaderLen
			if mode != OutputGarblerOnly {
				want += bitBytes(len(rec.outDec))
			}
			for _, f := range rec.frames {
				want += wire.HeaderLen + len(f)
			}
			cfg.Trace = compileTrace(t, cfg)
			if got := cfg.streamBufBytes(); got != want {
				t.Errorf("batch %d, mode %d: stream buffer of %d B for a %d B stream", batch, mode, got, want)
			}
		}
	}
}
