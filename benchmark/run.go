package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"time"

	"arm2gc"
	"arm2gc/internal/core"
	"arm2gc/internal/proto"
)

// rounds is how many times a run builds the whole stack from nothing; a
// metric's reported value is the median of its per-round statistics.
const rounds = 3

// expect is what Session.Count says a program costs: the paper's metric,
// independent of either party's secret input, which every timed session's
// RunInfo must reproduce exactly.
type expect struct {
	cycles int
	tables int
	detail core.CycleStats
}

// expectations counts every program of a workload once per process, off
// the clock: it is the benchmark's own reference, not system set-up.
func expectations(ctx context.Context, w *workload) (map[string]expect, error) {
	out := map[string]expect{}
	eng := arm2gc.NewEngine()
	for _, p := range w.programs {
		prog, _, err := p.make().Program()
		if err != nil {
			return nil, err
		}
		sess, err := eng.Session(prog, arm2gc.WithMaxCycles(maxCycles))
		if err != nil {
			return nil, err
		}
		info, err := sess.Count(ctx)
		if err != nil {
			return nil, err
		}
		out[p.name] = expect{cycles: info.Cycles, tables: info.GarbledTables, detail: info.Detail}
	}
	return out, nil
}

// limit ends a timed phase: after a fixed number of sessions per client
// when sessions > 0 (self-tests), otherwise at the deadline.
type limit struct {
	deadline time.Time
	sessions int
}

func (l limit) done(ran int) bool {
	if l.sessions > 0 {
		return ran >= l.sessions
	}
	return !time.Now().Before(l.deadline)
}

// phaseResult is what one closed-loop phase of one round observed.
type phaseResult struct {
	lat       map[string][]float64 // client-observed session wall time in ms, by program
	bytes     map[string]int64     // wire bytes of one session, by program (identical for all of them)
	attempted int
	failed    int
	firstErr  error
	wall      time.Duration // phase start to the last session's completion
}

func (r *phaseResult) verified() int { return r.attempted - r.failed }

// session runs one session on c and checks everything a client can check:
// no error or refusal, the outputs against the reference function, the
// cycle and table counts against Session.Count. With a tracer it uses the
// benchmark's own client, which makes the same two public calls
// Client.Evaluate makes — proto.Negotiate, then Session.Evaluate — with a
// span around each.
func (st *stack) session(ctx context.Context, c *evalClient, p *compiled, bob []uint32, exp expect, tr *tracer, parent, id int) (time.Duration, error) {
	var info *arm2gc.RunInfo
	var err error
	t0 := time.Now()
	if tr == nil {
		info, err = c.cl.Evaluate(ctx, p.name, bob, c.opts...)
	} else {
		info, err = tracedEvaluate(ctx, c, p, bob, tr, parent, id)
	}
	d := time.Since(t0)
	if err != nil {
		return d, fmt.Errorf("%s: %w", p.name, err)
	}
	want := p.check(p.alice, bob)
	if len(info.Outputs) < len(want) || !slices.Equal(info.Outputs[:len(want)], want) {
		return d, fmt.Errorf("%s: outputs %v, reference %v", p.name, info.Outputs, want)
	}
	if info.Cycles != exp.cycles || info.GarbledTables != exp.tables {
		return d, fmt.Errorf("%s: %d cycles / %d tables, Session.Count says %d / %d",
			p.name, info.Cycles, info.GarbledTables, exp.cycles, exp.tables)
	}
	return d, nil
}

func tracedEvaluate(ctx context.Context, c *evalClient, p *compiled, bob []uint32, tr *tracer, parent, id int) (*arm2gc.RunInfo, error) {
	root := tr.startSession(p.name, parent, id)
	defer tr.end(root)
	sp := tr.start("negotiate", root, id)
	grant, err := proto.Negotiate(ctx, c.conn, proto.Proposal{Program: p.name})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.start("evaluate", root, id)
	defer tr.end(sp)
	opts := append(c.opts[:len(c.opts):len(c.opts)], arm2gc.WithOutputMode(grant.Outputs),
		arm2gc.WithCycleBatch(grant.CycleBatch), arm2gc.WithMaxCycles(grant.MaxCycles))
	sess, err := c.eng.Session(p.prog, opts...)
	if err != nil {
		return nil, err
	}
	return sess.Evaluate(ctx, c.conn, bob)
}

// runPhase drives every client of the stack in a closed loop — a client
// proposes its next session only after the previous result arrived —
// until lim ends the phase. Client i draws its inputs from its own PRNG
// and starts on program i, then alternates. after, when set, runs on
// client 0 after each of its sessions (the traced run samples gauges there).
func (st *stack) runPhase(ctx context.Context, seeds []uint64, exps map[string]expect, lim limit, tr *tracer, parent int, after func()) *phaseResult {
	res := &phaseResult{lat: map[string][]float64{}, bytes: map[string]int64{}}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	var lastDone time.Time
	for i, c := range st.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seeds[i], uint64(i)))
			for n := 0; !lim.done(n); n++ {
				p := &st.progs[(i+n)%len(st.progs)]
				bob := randWords(rng, p.prog.Layout.BobWords)
				before := c.conn.total()
				d, err := st.session(ctx, c, p, bob, exps[p.name], tr, parent, i*1_000_000+n+1)
				moved := c.conn.total() - before
				done := time.Now()
				mu.Lock()
				res.attempted++
				if err == nil {
					if first, seen := res.bytes[p.name]; !seen {
						res.bytes[p.name] = moved
					} else if moved != first {
						err = fmt.Errorf("%s: session moved %d wire bytes, earlier sessions %d", p.name, moved, first)
					}
				}
				if err != nil {
					res.failed++
					if res.firstErr == nil {
						res.firstErr = err
					}
				} else {
					res.lat[p.name] = append(res.lat[p.name], ms(d))
				}
				if done.After(lastDone) {
					lastDone = done
				}
				mu.Unlock()
				if err != nil {
					return // the Client is broken after a failed session; its remaining load is lost
				}
				if after != nil && i == 0 {
					after()
				}
			}
		}()
	}
	wg.Wait()
	res.wall = lastDone.Sub(start)
	return res
}

// roundResult is one round of one workload: a fresh stack, its set-up
// time, and one timed phase.
type roundResult struct {
	setup time.Duration
	*phaseResult
}

// warmUp runs the untimed sessions that end set-up. They are verified
// like any other; a failure here aborts the round.
func (st *stack) warmUp(ctx context.Context, seed uint64, exps map[string]expect) error {
	warm := st.runPhase(ctx, clientSeeds(seed, len(st.clients)), exps,
		limit{sessions: st.w.warmup * len(st.progs)}, nil, 0, nil)
	if warm.failed > 0 {
		return fmt.Errorf("warm-up: %w", warm.firstErr)
	}
	return nil
}

func clientSeeds(seed uint64, n int) []uint64 {
	rng := rand.New(rand.NewPCG(seed, 0x61726d326763)) // stream id: "arm2gc"
	out := make([]uint64, n)
	for i := range out {
		out[i] = rng.Uint64()
	}
	return out
}

// emulateCheck cross-checks the reference function itself against native
// emulation of the compiled binary, once per round.
func (st *stack) emulateCheck(rng *rand.Rand) error {
	for _, p := range st.progs {
		bob := randWords(rng, p.prog.Layout.BobWords)
		got, _, err := arm2gc.Emulate(p.prog, p.alice, bob, maxCycles)
		if err != nil {
			return fmt.Errorf("%s: emulate: %w", p.name, err)
		}
		if want := p.check(p.alice, bob); !slices.Equal(got[:len(want)], want) {
			return fmt.Errorf("%s: emulator outputs %v, reference %v", p.name, got, want)
		}
	}
	return nil
}

// runRound builds a fresh stack, warms it up, and times one closed-loop
// phase. Set-up time runs from the first line to the first timed session.
func runRound(ctx context.Context, w *workload, seed uint64, exps map[string]expect, phase func() limit) (rr *roundResult, err error) {
	rng := rand.New(rand.NewPCG(seed, 1))
	t0 := time.Now()
	st, err := buildStack(ctx, w, rng, nil, 0)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := st.close(); err == nil && cerr != nil && rr.failed == 0 {
			err = fmt.Errorf("teardown: %w", cerr)
		}
	}()
	if err := st.warmUp(ctx, rng.Uint64(), exps); err != nil {
		return nil, err
	}
	rr = &roundResult{setup: time.Since(t0)}
	rr.phaseResult = st.runPhase(ctx, clientSeeds(rng.Uint64(), len(st.clients)), exps, phase(), nil, 0, nil)
	if err := st.emulateCheck(rng); err != nil {
		return nil, err
	}
	return rr, nil
}

// sessionBytes is the wire cost of one session of the workload's mix:
// the mean over its programs of that program's (exact) per-session bytes,
// so an uneven tail of the alternation cannot move it.
func sessionBytes(w *workload, bytes map[string]int64) float64 {
	var sum int64
	for _, p := range w.programs {
		sum += bytes[p.name]
	}
	return float64(sum) / float64(len(w.programs))
}
