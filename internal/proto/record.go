package proto

import (
	"bytes"
	"context"
	"fmt"
	"io"

	"arm2gc/internal/core"
	"arm2gc/internal/gc"
	"arm2gc/internal/wire"
)

// Recorded is one complete pre-garbled session: every byte the garbler
// would put on the wire before the evaluator's input matters — the hello
// frame, Alice's active input labels, Bob's OT label pairs and the full
// garbled-table stream — plus the output-decode metadata the online phase
// needs afterwards. Nothing in it depends on the evaluator: only the label
// *choice* does, and that happens inside OT at serve time.
//
// A Recorded is bound to one session id (the digest of the circuit, the
// public input and the negotiable options) and MUST be served at most
// once: its labels came from one fresh seed, and replaying them to two
// evaluators would let the transcripts be correlated. ServeRecorded does
// not enforce single use — the pool layer that hands entries out does.
type Recorded struct {
	sid    [32]byte
	hello  []byte        // the exact msgHello payload: sid || seed
	alice  []byte        // the exact msgAliceLabels payload
	pairs  [][2]gc.Label // Bob's OT input-label pairs, in wire order
	frames [][]byte      // every msgTables payload, in wire order
	stats  core.Stats
	halted bool

	// Per flattened output bit: publicly resolved flag, the public value
	// when so, and the point-and-permute decode bit when secret.
	outPub []bool
	outVal []bool
	outDec []bool

	size int // cached SizeBytes
}

// SessionID returns the session digest this stream was garbled for; only
// a Config digesting to the same id may serve it.
func (r *Recorded) SessionID() [32]byte { return r.sid }

// Seed returns the garbler's fingerprint seed for this stream. The seed
// is public (it crosses the wire in the hello frame); it doubles as a
// per-entry identity in tests, since every Recorded draws a fresh one.
func (r *Recorded) Seed() core.Seed {
	var s core.Seed
	copy(s[:], r.hello[32:])
	return s
}

// TableFrames returns how many msgTables frames the stream carries.
func (r *Recorded) TableFrames() int { return len(r.frames) }

// Stats returns the recorded run's scheduling statistics.
func (r *Recorded) Stats() core.Stats { return r.stats }

// Halted reports whether the recorded run hit the program's halt flag
// before the cycle budget.
func (r *Recorded) Halted() bool { return r.halted }

// SizeBytes estimates the entry's memory footprint — the payload bytes
// plus per-slice bookkeeping — for pool byte budgets.
func (r *Recorded) SizeBytes() int { return r.size }

func (r *Recorded) computeSize() {
	n := len(r.hello) + len(r.alice) + 32*len(r.pairs) + 3*len(r.outPub) + 256
	for _, f := range r.frames {
		n += len(f) + 24
	}
	r.size = n
}

// setupGarbler does everything the garbler decides before a peer matters:
// it draws the hello's seed bytes and the labels from rnd — seed, R,
// Alice's bits, Bob's bits, in that fixed order, so live garbling and
// offline recording put the same bytes on the wire from the same
// randomness — and builds the schedule (see Config.schedule) and the
// executor. The returned
// Recorded holds the session head (hello, Alice's labels, Bob's OT pairs);
// its table frames and decode metadata are filled in as the run proceeds.
func setupGarbler(ctx context.Context, clk *clock, cfg Config, aliceInput []bool, rnd io.Reader) (*Recorded, *core.Schedule, *core.Garbler, error) {
	sid, err := cfg.SessionID()
	if err != nil {
		return nil, nil, nil, err
	}
	if rnd == nil {
		rnd = gc.CryptoRand
	}
	// The hello still carries 16 seed bytes, which no schedule reads (a
	// replayed one needs no fingerprint seed); they enter the OT
	// extension's nonce with the rest of the hello.
	var seed core.Seed
	if _, err := io.ReadFull(rnd, seed[:]); err != nil {
		return nil, nil, nil, err
	}
	sched, err := cfg.schedule(ctx, clk)
	if err != nil {
		return nil, nil, nil, err
	}
	g, err := core.ReadReplayGarbler(cfg.Circuit, rnd)
	if err != nil {
		return nil, nil, nil, err
	}
	g.Reserve(cfg.Trace.Width())
	rec := &Recorded{
		sid:   sid,
		hello: append(append([]byte{}, sid[:]...), seed[:]...),
		alice: packLabels(g.AliceActiveLabels(aliceInput)),
		pairs: g.BobPairs(),
	}
	return rec, sched, g, nil
}

// handshake opens a session as the garbler, over the connection's OT
// state. Its opening flight is the hello and Alice's active labels, which
// need nothing from the evaluator; it then reads the evaluator's echo of
// the session id, which leaves with the evaluator's first OT message, and
// runs the OT for Bob's labels, so on a held OT epoch the evaluator waits
// once in this exchange, for the OT's reply. The echo is checked before
// this side writes any OT message or table: Alice's active labels alone
// are random strings to a peer that holds neither R nor the tables.
func (r *Recorded) handshake(conn io.ReadWriter, clk *clock, st *OTState) error {
	if err := wire.Write(conn, msgHello, r.hello); err != nil {
		return err
	}
	if err := wire.Write(conn, msgAliceLabels, r.alice); err != nil {
		return err
	}
	ack, err := readExact(conn, msgHello, len(r.sid))
	if err != nil {
		return err
	}
	if !bytes.Equal(ack, r.sid[:]) {
		return fmt.Errorf("proto: evaluator session mismatch")
	}
	if err := st.send(conn, clk, r.hello, r.pairs); err != nil {
		return fmt.Errorf("proto: OT: %w", err)
	}
	clk.enter(PhaseKernel)
	return nil
}

// finish captures what the decode phase needs once the last cycle is
// garbled: the run's outcome and every output bit's final verdict.
func (r *Recorded) finish(sched *core.Schedule, g *core.Garbler) {
	r.stats, r.halted = sched.Stats(), sched.Halted()
	slots := sched.OutputSlots()
	r.outPub = make([]bool, len(slots))
	r.outVal = make([]bool, len(slots))
	r.outDec = make([]bool, len(slots))
	for i, w := range slots {
		v, pub := sched.OutputState(i)
		r.outPub[i], r.outVal[i] = pub, v && pub
		if !pub {
			r.outDec[i] = g.DecodeBit(w)
		}
	}
}

// exchangeOutputs is the garbler's output-decode exchange, and returns the
// outputs this side learns (nil in OutputEvaluatorOnly mode). Each side
// ends every session on its terminal frame, empty when it has nothing to
// reveal: the decode frame here (empty in garbler-only mode), the
// evaluator's outputs frame (empty in evaluator-only mode).
func (r *Recorded) exchangeOutputs(conn io.ReadWriter, mode OutputMode) ([]bool, error) {
	var decode []byte
	if mode != OutputGarblerOnly {
		decode = packBits(r.outDec)
	}
	if err := wire.Write(conn, msgDecode, decode); err != nil {
		return nil, err
	}
	n := len(r.outPub)
	if mode == OutputEvaluatorOnly {
		n = 0
	}
	payload, err := readExact(conn, msgOutputs, bitBytes(n))
	if err != nil {
		return nil, err
	}
	out, err := unpackBits(payload, n)
	if err != nil {
		return nil, err
	}
	switch mode {
	case OutputEvaluatorOnly:
		return nil, nil
	case OutputGarblerOnly:
		// The evaluator sent its active labels' permute bits and never
		// sees the decode bits; decode locally.
		for i := range out {
			if r.outPub[i] {
				out[i] = r.outVal[i]
			} else {
				out[i] = out[i] != r.outDec[i]
			}
		}
	}
	return out, nil
}

// RecordGarbler runs the garbler's entire offline phase with no peer: it
// draws a fresh seed from rnd, garbles the complete table stream into
// memory through exactly the loop the live path uses (replaying cfg.Trace,
// compiled first when nil), and captures the label and decode metadata.
// ServeRecorded then replays the result to one evaluator with a wire
// stream byte-identical to what RunGarbler would have produced from the
// same randomness. The returned Result carries the run's stats, as
// RunGarbler's would.
func RecordGarbler(ctx context.Context, cfg Config, aliceInput []bool, rnd io.Reader) (*Recorded, *Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	rec, sched, g, err := setupGarbler(ctx, nil, cfg, aliceInput, rnd)
	if err != nil {
		return nil, nil, err
	}
	err = garbleFrames(ctx, cfg, sched, g, func(frame []byte) error {
		rec.frames = append(rec.frames, append([]byte(nil), frame[wire.HeaderLen:]...))
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	rec.finish(sched, g)
	rec.computeSize()
	res := &Result{Stats: rec.stats, Halted: rec.halted, TableFrames: len(rec.frames)}
	return rec, res, nil
}

// ServeRecorded plays the garbler's online phase from a pre-garbled
// stream: hello, Alice's labels, OT, the buffered table frames, then the
// output-decode exchange — byte-identical to RunGarbler over the same
// randomness, with zero garbling on the hot path. cfg must digest to the
// stream's session id (it fixes the output mode the decode phase runs
// under). The caller guarantees rec has never been served before.
func ServeRecorded(ctx context.Context, conn io.ReadWriter, cfg Config, rec *Recorded) (*Result, error) {
	return inFlight(ctx, conn, func(ctx context.Context, f io.ReadWriter, clk *clock) (*Result, error) {
		return serveRecorded(ctx, f, clk, cfg, rec)
	})
}

func serveRecorded(ctx context.Context, conn io.ReadWriter, clk *clock, cfg Config, rec *Recorded) (*Result, error) {
	sid, err := cfg.SessionID()
	if err != nil {
		return nil, err
	}
	if sid != rec.sid {
		return nil, fmt.Errorf("proto: recorded stream was garbled for a different session")
	}
	if err := rec.handshake(conn, clk, cfg.OT); err != nil {
		return nil, err
	}
	res := &Result{Stats: rec.stats, Halted: rec.halted}
	for _, f := range rec.frames {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := wire.Write(conn, msgTables, f); err != nil {
			return nil, err
		}
		res.TableFrames++
	}
	clk.enter(PhaseDecode)
	if res.Outputs, err = rec.exchangeOutputs(conn, cfg.Outputs); err != nil {
		return nil, err
	}
	return res, nil
}
