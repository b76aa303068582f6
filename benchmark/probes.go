package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"slices"
	"time"

	"arm2gc/internal/circuit"
	"arm2gc/internal/core"
	"arm2gc/internal/cpu"
	"arm2gc/internal/gc"
	"arm2gc/internal/obliv"
	"arm2gc/internal/ot"
	"arm2gc/internal/proto"
)

// The layer probes time calls into each layer's public functions from
// outside, on the workload's primary program, so a layer's cost is known
// apart from the session it is normally part of.

// probeBudget bounds the repetitions of one probe: it runs until the
// budget is spent, at least once and at most maxReps times, and reports
// per-key medians.
const (
	probeBudget = 700 * time.Millisecond
	maxReps     = 9
)

func repeat(fn func() (map[string]float64, error)) (map[string]float64, error) {
	var samples []map[string]float64
	for start := time.Now(); ; {
		s, err := fn()
		if err != nil {
			return nil, err
		}
		if samples = append(samples, s); len(samples) == maxReps || time.Since(start) >= probeBudget {
			return medianMaps(samples), nil
		}
	}
}

// machine is the primary program bound to a synthesized processor, with
// both parties' input bits: what every core/proto probe needs.
type machine struct {
	p     *compiled
	cpu   *cpu.CPU
	pub   []bool
	alice []bool
	bob   []bool
	bobW  []uint32
}

// probeCPU times netlist synthesis (cpu.BuildMem with the engine's default
// memory configuration) and reports the netlist's composition.
func probeCPU(p *compiled, rng *rand.Rand, out map[string]float64) (*machine, error) {
	t0 := time.Now()
	c, err := cpu.BuildMem(p.prog.Layout, obliv.Config{})
	if err != nil {
		return nil, err
	}
	out["cpu.build_ms"] = ms(time.Since(t0))
	st := c.Circuit.Stats()
	out["cpu.gates"] = float64(st.Gates)
	out["cpu.nonxor_gates"] = float64(st.NonXOR)
	out["cpu.dffs"] = float64(st.DFFs)
	m := &machine{p: p, cpu: c, bobW: randWords(rng, p.prog.Layout.BobWords)}
	if m.pub, err = c.PublicBits(p.prog); err != nil {
		return nil, err
	}
	if m.alice, err = c.InputBits(circuit.Alice, p.alice); err != nil {
		return nil, err
	}
	if m.bob, err = c.InputBits(circuit.Bob, m.bobW); err != nil {
		return nil, err
	}
	return m, nil
}

// connPair is the two ends of one loopback TCP connection. A probe keeps
// one pair for all its repetitions, as a Client keeps one connection for
// all its sessions, so no repetition pays for a cold connection.
type connPair struct{ a, b *countingConn }

func newConnPair() (*connPair, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	dialled, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, err
	}
	accepted, err := ln.Accept()
	if err != nil {
		return nil, errors.Join(err, dialled.Close())
	}
	return &connPair{a: &countingConn{Conn: accepted}, b: &countingConn{Conn: dialled}}, nil
}

func (p *connPair) close() error { return errors.Join(p.a.Close(), p.b.Close()) }

// exchange runs the two sides of a two-party exchange over the pair and
// returns each side's wall time and the bytes the receiving side moved.
// A side that fails closes its end, which unblocks the other.
func (p *connPair) exchange(sender, receiver func(net.Conn) error) (sendD, recvD time.Duration, bytes int64, err error) {
	before := p.b.total()
	done := make(chan error, 1)
	go func() {
		t0 := time.Now()
		err := sender(p.a)
		sendD = time.Since(t0)
		if err != nil {
			_ = p.a.Close() // the sender's own error is the one reported
		}
		done <- err
	}()
	t0 := time.Now()
	rerr := receiver(p.b)
	recvD = time.Since(t0)
	if rerr != nil {
		_ = p.b.Close() // rerr is the one reported
	}
	serr := <-done
	return sendD, recvD, p.b.total() - before, errors.Join(serr, rerr)
}

// probeOT times the IKNP label transfer (128 P-256 base OTs plus the
// extension) at the program's Bob-bit count.
func probeOT(cp *connPair, m *machine) (map[string]float64, error) {
	g := core.NewReplayGarbler(m.cpu.Circuit, gc.CryptoRand)
	pairs := g.BobPairs()
	return repeat(func() (map[string]float64, error) {
		var got []gc.Label
		_, recvD, bytes, err := cp.exchange(
			func(c net.Conn) error { return ot.SendLabels(c, pairs) },
			func(c net.Conn) (err error) { got, err = ot.ReceiveLabels(c, m.bob); return err })
		if err != nil {
			return nil, err
		}
		for i, l := range got {
			want := pairs[i][0]
			if m.bob[i] {
				want = pairs[i][1]
			}
			if l != want {
				return nil, fmt.Errorf("ot: label %d is not the chosen one", i)
			}
		}
		return map[string]float64{"ot.transfer_ms": ms(recvD), "ot.bytes": float64(bytes)}, nil
	})
}

// deliver hands the evaluator its input labels in process, as
// core.RunLocal does.
func deliver(g *core.Garbler, e *core.Evaluator, m *machine) error {
	pairs := g.BobPairs()
	chosen := make([]gc.Label, len(pairs))
	for i := range pairs {
		chosen[i] = pairs[i][0]
		if m.bob[i] {
			chosen[i] = pairs[i][1]
		}
	}
	return e.SetInputs(g.AliceActiveLabels(m.alice), chosen)
}

// probeCoreLive is a local two-party classified run with every call into
// core timed: one Scheduler shared by a Garbler and an Evaluator, as in
// core.RunLocal. Per-party numbers are reported — both parties pay
// classify_ms and dff_commit_ms in a real session, in parallel — and the
// schedule is recorded on the side for the replay probe.
func probeCoreLive(m *machine) (map[string]float64, *core.Trace, core.Stats, error) {
	c := m.cpu.Circuit
	stop := c.FindOutput("halted")
	if stop == nil {
		return nil, nil, core.Stats{}, fmt.Errorf("core probe: processor has no halted output")
	}
	stopWire := c.ResolveOutput(stop.Wires[0])
	var trace *core.Trace
	var stats core.Stats
	out, err := repeat(func() (map[string]float64, error) {
		s := core.NewScheduler(c, core.Seed{}, m.pub)
		g := core.NewGarbler(s, gc.CryptoRand)
		e := core.NewEvaluator(s)
		if err := deliver(g, e, m); err != nil {
			return nil, err
		}
		rec := core.NewTraceRecorder(s)
		var classify, garble, eval, dffG, dffE, commit time.Duration
		var tables []gc.Table
		st := core.Stats{}
		halted := false
		for cyc := 1; cyc <= maxCycles && !halted; cyc++ {
			t0 := time.Now()
			cs := s.Classify(cyc == maxCycles)
			t1 := time.Now()
			classify += t1.Sub(t0)
			st.Total.Add(cs)
			st.Cycles++
			if v, pub := s.WireState(stopWire); pub && v {
				halted = true
			}
			rec.RecordCycle(cs, halted)
			t2 := time.Now()
			tables = g.GarbleCycle(tables[:0])
			t3 := time.Now()
			rest, err := e.EvalCycle(tables)
			t4 := time.Now()
			garble += t3.Sub(t2)
			eval += t4.Sub(t3)
			if err != nil {
				return nil, err
			}
			if len(rest) != 0 {
				return nil, fmt.Errorf("core probe: cycle %d left %d tables unconsumed", cyc, len(rest))
			}
			if halted {
				break
			}
			g.CopyDFFs()
			t5 := time.Now()
			e.CopyDFFs()
			t6 := time.Now()
			s.Commit()
			t7 := time.Now()
			dffG += t5.Sub(t4)
			dffE += t6.Sub(t5)
			commit += t7.Sub(t6)
		}
		trace, stats = rec.Finish(halted), st
		return map[string]float64{
			"core.classify_ms":   ms(classify),
			"core.garble_ms":     ms(garble),
			"core.eval_ms":       ms(eval),
			"core.dff_commit_ms": ms((dffG+dffE)/2 + commit),
		}, nil
	})
	return out, trace, stats, err
}

// probeCoreReplay is the same loop over the replay kernels of a recorded
// trace: no scheduler, so no classify and no Commit.
func probeCoreReplay(m *machine, tr *core.Trace) (map[string]float64, error) {
	return repeat(func() (map[string]float64, error) {
		g := core.NewReplayGarbler(m.cpu.Circuit, gc.CryptoRand)
		e := core.NewReplayEvaluator(m.cpu.Circuit)
		if err := deliver(g, e, m); err != nil {
			return nil, err
		}
		var garble, eval, dffG, dffE time.Duration
		var tables []gc.Table
		n := tr.NumCycles()
		for cyc := 1; cyc <= n; cyc++ {
			ct := tr.Cycle(cyc)
			t0 := time.Now()
			tables = g.GarbleCycleTrace(ct, cyc, tables[:0])
			t1 := time.Now()
			rest, err := e.EvalCycleTrace(ct, cyc, tables)
			t2 := time.Now()
			garble += t1.Sub(t0)
			eval += t2.Sub(t1)
			if err != nil {
				return nil, err
			}
			if len(rest) != 0 {
				return nil, fmt.Errorf("core probe: replayed cycle %d left %d tables unconsumed", cyc, len(rest))
			}
			if cyc == n {
				break
			}
			g.CopyDFFs()
			t3 := time.Now()
			e.CopyDFFs()
			t4 := time.Now()
			dffG += t3.Sub(t2)
			dffE += t4.Sub(t3)
		}
		return map[string]float64{
			"core.replay_garble_ms":     ms(garble),
			"core.replay_eval_ms":       ms(eval),
			"core.replay_dff_commit_ms": ms((dffG + dffE) / 2),
		}, nil
	})
}

// sink keeps the half-gates loops observable to the compiler.
var sink gc.Label

// probeGC times the half-gates primitives alone: two fixed-key AES calls
// per table on each side, the floor under any garbling schedule.
func probeGC() map[string]float64 {
	const n = 200_000
	h := gc.NewHash()
	r := gc.RandDelta(gc.CryptoRand)
	a0, b0 := gc.RandLabel(gc.CryptoRand), gc.RandLabel(gc.CryptoRand)
	var tab gc.Table
	t0 := time.Now()
	for i := 0; i < n; i++ {
		sink, tab = gc.GarbleAnd(h, r, a0, b0, uint64(i))
	}
	garble := time.Since(t0)
	t0 = time.Now()
	for i := 0; i < n; i++ {
		sink = gc.EvalAnd(h, a0, b0, tab, uint64(n-1))
	}
	eval := time.Since(t0)
	return map[string]float64{
		"gc.garble_ns_per_table": float64(garble.Nanoseconds()) / n,
		"gc.eval_ns_per_table":   float64(eval.Nanoseconds()) / n,
	}
}

// protoConfig is the public session configuration both probe parties
// share; it mirrors what Engine.Session hands to proto.
func (m *machine) protoConfig(tr *core.Trace, readAhead int) proto.Config {
	return proto.Config{Circuit: m.cpu.Circuit, Public: m.pub, Cycles: maxCycles, StopOutput: "halted",
		CycleBatch: cycleBatch, Trace: tr, ReadAhead: readAhead}
}

// probeProto runs the table stream between proto.RunGarbler (or
// ServeRecorded) and proto.RunEvaluator over loopback TCP in the given
// form and returns both parties' wall times. The evaluator's outputs are
// checked against the reference function.
func probeProto(ctx context.Context, cp *connPair, m *machine, tr *core.Trace, f form, readAhead int) (map[string]float64, error) {
	return repeat(func() (map[string]float64, error) {
		gcfg, ecfg := m.protoConfig(tr, 0), m.protoConfig(tr, readAhead)
		if f == formLive {
			gcfg.Trace, ecfg.Trace = nil, nil
		}
		out := map[string]float64{}
		garbler := func(c net.Conn) error {
			_, err := proto.RunGarbler(ctx, c, gcfg, m.alice, nil)
			return err
		}
		if f == formRecorded {
			t0 := time.Now()
			rec, _, err := proto.RecordGarbler(ctx, gcfg, m.alice, nil)
			if err != nil {
				return nil, err
			}
			out["record_ms"] = ms(time.Since(t0))
			garbler = func(c net.Conn) error {
				_, err := proto.ServeRecorded(ctx, c, gcfg, rec)
				return err
			}
		}
		var res *proto.Result
		gD, eD, _, err := cp.exchange(garbler, func(c net.Conn) (err error) {
			res, err = proto.RunEvaluator(ctx, c, ecfg, m.bob)
			return err
		})
		if err != nil {
			return nil, err
		}
		want := m.p.check(m.p.alice, m.bobW)
		if got := cpu.OutWords(res.Outputs[:m.p.prog.Layout.OutWords*32]); !slices.Equal(got[:len(want)], want) {
			return nil, fmt.Errorf("proto probe: outputs %v, reference %v", got, want)
		}
		out["garbler_ms"], out["evaluator_ms"], out["table_frames"] = ms(gD), ms(eD), float64(res.TableFrames)
		return out, nil
	})
}
