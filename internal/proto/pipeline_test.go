package proto

import (
	"bytes"
	"context"
	mrand "math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"arm2gc/internal/core"
)

// runBothTap runs both parties over a pipe with a fixed-seed garbler RNG,
// recording every table-frame payload the evaluator receives.
func runBothTap(t *testing.T, cfg Config, alice, bob []bool, seed int64) (*Result, *Result, [][]byte) {
	t.Helper()
	return runBothAsym(t, cfg, cfg, alice, bob, seed)
}

// runBothAsym is runBothTap with per-side configs, for the role-local knobs
// (Pipeline, Trace, ReadAhead) that may differ between garbler and
// evaluator.
func runBothAsym(t *testing.T, cfgG, cfgE Config, alice, bob []bool, seed int64) (*Result, *Result, [][]byte) {
	t.Helper()
	var frames [][]byte
	cfgE.tapTables = func(p []byte) { frames = append(frames, append([]byte(nil), p...)) }
	ca, cb := net.Pipe()
	defer ca.Close()
	defer cb.Close()
	type res struct {
		r   *Result
		err error
	}
	ch := make(chan res, 1)
	go func() {
		r, err := RunGarbler(context.Background(), ca, cfgG, alice, mrand.New(mrand.NewSource(seed)))
		ch <- res{r, err}
	}()
	rb, err := RunEvaluator(context.Background(), cb, cfgE, bob)
	if err != nil {
		t.Fatalf("evaluator: %v", err)
	}
	ra := <-ch
	if ra.err != nil {
		t.Fatalf("garbler: %v", ra.err)
	}
	return ra.r, rb, frames
}

// TestPipelinedGarblerByteIdentical is the pipelining correctness
// anchor: with the same label randomness, the pipelined garbler must put
// exactly the same table bytes in exactly the same frames on the wire as
// the serial one.
func TestPipelinedGarblerByteIdentical(t *testing.T) {
	for _, batch := range []int{1, 4} {
		cfg, alice, bob := multiCycleConfig(t, batch)
		pipelined := cfg
		pipelined.Pipeline = 3

		ra, _, serialFrames := runBothTap(t, cfg, alice, bob, 7)
		rp, rpb, pipeFrames := runBothTap(t, pipelined, alice, bob, 7)

		if len(serialFrames) == 0 {
			t.Fatalf("batch %d: no table frames recorded", batch)
		}
		if len(pipeFrames) != len(serialFrames) {
			t.Fatalf("batch %d: pipelined sent %d frames, serial %d", batch, len(pipeFrames), len(serialFrames))
		}
		for i := range serialFrames {
			if !bytes.Equal(serialFrames[i], pipeFrames[i]) {
				t.Fatalf("batch %d: frame %d differs between serial and pipelined garbling", batch, i)
			}
		}
		if ra.Stats != rp.Stats {
			t.Fatalf("batch %d: stats differ: serial %+v pipelined %+v", batch, ra.Stats, rp.Stats)
		}
		for i := range ra.Outputs {
			if ra.Outputs[i] != rp.Outputs[i] || rp.Outputs[i] != rpb.Outputs[i] {
				t.Fatalf("batch %d: output %d differs", batch, i)
			}
		}
		if rp.TableFrames != len(pipeFrames) {
			t.Fatalf("batch %d: pipelined garbler counted %d frames, evaluator saw %d",
				batch, rp.TableFrames, len(pipeFrames))
		}
	}
}

// TestPipelineOverlapsComputeWithIO pins the point of pipelining: with a
// slow evaluator draining the pipe, the garbler's producer must finish
// garbling the whole run while the evaluator is still far behind —
// compute genuinely overlaps frame I/O instead of running in lockstep
// with it (the serial path cannot classify cycle k+1 before the write of
// frame k unblocks).
func TestPipelineOverlapsComputeWithIO(t *testing.T) {
	cfg, alice, bob := multiCycleConfig(t, 1) // 16 cycles, one frame each
	cfg.Pipeline = 8
	var evalCycle, evalAtGarbleDone atomic.Int64
	cfgG, cfgE := cfg, cfg
	cfgG.Sink = func(cyc int, _ core.CycleStats) {
		if cyc == cfg.Cycles {
			evalAtGarbleDone.Store(evalCycle.Load())
		}
	}
	cfgE.Sink = func(cyc int, _ core.CycleStats) {
		evalCycle.Store(int64(cyc))
		time.Sleep(3 * time.Millisecond)
	}

	ca, cb := net.Pipe()
	defer ca.Close()
	defer cb.Close()
	errc := make(chan error, 1)
	go func() {
		_, err := RunGarbler(context.Background(), ca, cfgG, alice, nil)
		errc <- err
	}()
	if _, err := RunEvaluator(context.Background(), cb, cfgE, bob); err != nil {
		t.Fatalf("evaluator: %v", err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("garbler: %v", err)
	}

	// With an 8-frame lookahead the producer finishes all 16 cycles once
	// ~7 frames have crossed the pipe; serial garbling would put the
	// evaluator at cycle 15-16 by then.
	if got := evalAtGarbleDone.Load(); got >= 14 {
		t.Errorf("no overlap: evaluator already at cycle %d when the garbler classified its last cycle", got)
	}
}

// TestPipelinedStatsSinkOrdered pins the Sink contract under pipelining:
// the producer goroutine emits every cycle's stats exactly once, in cycle
// order, and they match the serial run's stats cycle for cycle. Run with
// -race, this also proves the sink callback is safe to observe from the
// caller's side once the run returns.
func TestPipelinedStatsSinkOrdered(t *testing.T) {
	cfg, alice, bob := multiCycleConfig(t, 1)

	collect := func(role string, pipeline int) []core.CycleStats {
		var mu sync.Mutex
		seen := make(map[int]int)
		var stats []core.CycleStats
		sink := func(cyc int, cs core.CycleStats) {
			mu.Lock()
			defer mu.Unlock()
			seen[cyc]++
			if cyc != len(stats)+1 {
				t.Errorf("%s pipeline %d: sink saw cycle %d after %d cycles", role, pipeline, cyc, len(stats))
			}
			stats = append(stats, cs)
		}
		cfgG, cfgE := cfg, cfg
		cfgG.Pipeline = pipeline
		if role == "garbler" {
			cfgG.Sink = sink
		} else {
			cfgE.Sink = sink
		}
		runBothAsym(t, cfgG, cfgE, alice, bob, 21)
		mu.Lock()
		defer mu.Unlock()
		if len(stats) != cfg.Cycles {
			t.Fatalf("%s pipeline %d: sink fired %d times, want %d", role, pipeline, len(stats), cfg.Cycles)
		}
		for cyc := 1; cyc <= cfg.Cycles; cyc++ {
			if seen[cyc] != 1 {
				t.Fatalf("%s pipeline %d: cycle %d reported %d times, want exactly once", role, pipeline, cyc, seen[cyc])
			}
		}
		return stats
	}

	for _, role := range []string{"garbler", "evaluator"} {
		serial := collect(role, 0)
		pipelined := collect(role, 4)
		for cyc := range serial {
			if serial[cyc] != pipelined[cyc] {
				t.Fatalf("%s cycle %d stats differ: serial %+v pipelined %+v", role, cyc+1, serial[cyc], pipelined[cyc])
			}
		}
	}
}
