// Package proto runs the ARM2GC protocol between two parties over a byte
// stream (TCP in the cmd tools, net.Pipe in tests): circuit/parameter
// agreement, direct transfer of the garbler's input labels, IKNP oblivious
// transfer for the evaluator's labels (over base OTs a connection runs
// once, see OTState), garbled-table streaming (batched
// over CycleBatch cycles per frame) with SkipGate on both sides, and
// two-way output decoding.
//
// Both parties independently run the shared SkipGate scheduler from the
// same public data, so no classification information is ever exchanged —
// only garbled tables and labels cross the wire, exactly as in the paper.
//
// Both entry points take a context.Context: cancellation aborts the run
// between cycles, and — when the connection supports deadlines (net.Conn,
// net.Pipe) — unblocks any in-flight frame read or write, so a hung peer
// cannot wedge the caller.
//
// Everything here is wire-stream-critical: both parties must derive
// byte-identical public circuit state, so code in this package must be
// fully deterministic (no map-order, wall-clock, global-rand, or
// scheduling dependence). The arm2gc-vet determinism analyzer enforces
// this; the next line is its machine-readable annotation.
//
//arm2gc:deterministic
package proto

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"arm2gc/internal/circuit"
	"arm2gc/internal/core"
	"arm2gc/internal/gc"
	"arm2gc/internal/wire"
)

// OutputMode selects who learns the outputs (the paper's "one or both of
// them learn the output c").
type OutputMode uint8

// Output modes.
const (
	OutputBoth OutputMode = iota
	OutputGarblerOnly
	OutputEvaluatorOnly
)

// Config fixes the public parameters both parties must agree on.
type Config struct {
	Circuit *circuit.Circuit
	Public  []bool // the public input p (e.g. the program binary)
	Cycles  int    // maximum clock cycles

	// StopOutput optionally names the public halt flag output.
	StopOutput string

	// Outputs selects who learns the result (default: both).
	Outputs OutputMode

	// CycleBatch is how many cycles of garbled tables share one msgTables
	// frame (default 1: a frame per cycle). Batching cuts the frame count
	// — and, over a real network, the syscall and round-trip overhead —
	// by the batch factor without changing a single table byte. Both
	// parties must agree; it is part of the session id.
	CycleBatch int

	// Sink, when set, receives every cycle's scheduling outcome as the
	// cycle is produced, on both roles.
	Sink func(cycle int, cs core.CycleStats)

	// Trace, when set, replays a recorded classification schedule instead
	// of running the SkipGate scheduler: the role's kernel is fed the
	// recorded cycles, collapsing its hot path to fixed-key-AES label work.
	// The trace must come from the same (circuit, public input, cycle
	// budget, halt flag) tuple — see core.Trace. The wire stream is
	// byte-identical to a classified run's, so the knob is local: it is
	// not part of the session id, and a replaying role interoperates with
	// a classifying peer.
	Trace *core.Trace

	// Record, when set, compiles this run's classification schedule into
	// Result.Trace for later replay, drawing its bytes from the budget as
	// core.RunOpts.Record does: once the budget refuses, Result.Trace is nil
	// and the run goes on classifying. Mutually exclusive with Trace; it
	// changes no wire byte.
	Record core.RecordBudget

	// OT, when set, carries this party's base OTs across the sessions of
	// one connection (see OTState); nil runs fresh base OTs. Like Trace it
	// is local state, not part of the session id: the negotiation keeps
	// the two parties' states in step.
	OT *OTState

	// ReadAhead is ignored: the evaluator reads its frames synchronously.
	//
	// Deprecated: read-ahead is gone; drop the field.
	ReadAhead int

	// tapTables is a test hook: the evaluator calls it with every raw
	// msgTables payload it receives, in arrival order. The payload's
	// buffer is reused for the next frame, so a hook that keeps it copies.
	tapTables func(payload []byte)
}

// batch returns the normalized frame batch size.
func (c Config) batch() int {
	if c.CycleBatch < 1 {
		return 1
	}
	return c.CycleBatch
}

// SessionID digests everything public both parties must agree on: circuit
// hash, cycle budget, cycle batch, output mode, halt flag name and the
// packed public input. A mismatch aborts the handshake; the negotiation
// layer echoes it in the Grant so a Client can verify program agreement
// before the run starts. Every variable-length field is length-prefixed,
// so distinct (StopOutput, Public) pairs can never digest to the same id.
func (c Config) SessionID() ([32]byte, error) {
	if c.Circuit == nil || c.Cycles <= 0 {
		return [32]byte{}, fmt.Errorf("proto: incomplete config")
	}
	h := sha256.New()
	ch := c.Circuit.Hash()
	h.Write(ch[:])
	var buf [8]byte
	putU64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	putU64(uint64(c.Cycles))
	putU64(uint64(c.batch()))
	h.Write([]byte{byte(c.Outputs)})
	putU64(uint64(len(c.StopOutput)))
	h.Write([]byte(c.StopOutput))
	putU64(uint64(len(c.Public)))
	h.Write(packBits(c.Public))
	var out [32]byte
	h.Sum(out[:0])
	return out, nil
}

// Message types: the session's frames in the wire package's one table.
const (
	msgHello       = wire.Hello
	msgAliceLabels = wire.AliceLabels
	msgTables      = wire.Tables
	msgDecode      = wire.Decode
	msgOutputs     = wire.Outputs
)

// streamBufBytes sizes the evaluator's read buffer over the garbler's
// table stream.
const streamBufBytes = 64 << 10

// helloLen is the garbler's hello payload: the session id, then the
// garbler's public fingerprint seed. The evaluator echoes the id alone.
const helloLen = 32 + len(core.Seed{})

// readExact reads the next frame, which must be a typ frame of exactly n
// bytes.
func readExact(r io.Reader, typ byte, n int) ([]byte, error) {
	return wire.Read(r, typ, n, n)
}

// bitBytes is the packed size of n bits.
func bitBytes(n int) int { return (n + 7) / 8 }

func packBits(bits []bool) []byte {
	out := make([]byte, bitBytes(len(bits)))
	for i, b := range bits {
		if b {
			out[i/8] |= 1 << uint(i%8)
		}
	}
	return out
}

// unpackBits decodes a peer's n-bit payload, refusing any other length: the
// payload comes straight off the wire.
func unpackBits(b []byte, n int) ([]bool, error) {
	if len(b) != bitBytes(n) {
		return nil, fmt.Errorf("proto: bit frame of %d bytes, want %d for %d bits", len(b), bitBytes(n), n)
	}
	bits := make([]bool, n)
	for i := range bits {
		bits[i] = b[i/8]&(1<<uint(i%8)) != 0
	}
	return bits, nil
}

func packLabels(ls []gc.Label) []byte {
	out := make([]byte, 0, 16*len(ls))
	for _, l := range ls {
		b := l.Bytes()
		out = append(out, b[:]...)
	}
	return out
}

func unpackLabels(b []byte) []gc.Label {
	ls := make([]gc.Label, len(b)/16)
	for i := range ls {
		ls[i] = gc.LabelFromBytes(b[16*i:])
	}
	return ls
}

// deadliner is the subset of net.Conn the context watcher needs; net.Pipe
// and every real network connection implement it.
type deadliner interface {
	SetDeadline(t time.Time) error
}

// watchContext arms an abort path for blocking conn I/O: when ctx is
// cancelled, every pending and future read/write on conn fails
// immediately via an already-expired deadline. The returned stop function
// releases the watcher.
func watchContext(ctx context.Context, conn io.ReadWriter) (stop func()) {
	d, ok := conn.(deadliner)
	if !ok || ctx.Done() == nil {
		return func() {}
	}
	stopped := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		select {
		case <-ctx.Done():
			// Best-effort poke: expire pending I/O so the blocked read
			// observes the cancellation. If the conn refuses deadlines
			// the read simply finishes on its own terms.
			_ = d.SetDeadline(time.Unix(1, 0))
		case <-stopped:
		}
	}()
	return func() {
		close(stopped)
		<-done
	}
}

// abortErr prefers the context's verdict over the I/O error it provoked,
// so callers see ctx.Err() (wrapped) when a run was cancelled.
func abortErr(ctx context.Context, err error) error {
	if err == nil {
		return nil
	}
	if cerr := ctx.Err(); cerr != nil {
		return fmt.Errorf("proto: run aborted: %w", cerr)
	}
	return err
}

// Result reports a protocol run.
type Result struct {
	Outputs []bool // all output buses flattened (resolved, final cycle)
	Stats   core.Stats
	Halted  bool

	// TableFrames is the number of msgTables frames that crossed the
	// wire; with CycleBatch > 1 it is ~Cycles/CycleBatch.
	TableFrames int

	// Trace is the recorded classification schedule when Config.Record
	// was set, the run completed and the budget granted the whole
	// recording.
	Trace *core.Trace
}

// RunGarbler plays Alice.
func RunGarbler(ctx context.Context, conn io.ReadWriter, cfg Config, aliceInput []bool, rnd io.Reader) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	stop := watchContext(ctx, conn)
	defer stop()
	res, err := runGarbler(ctx, conn, cfg, aliceInput, rnd)
	return res, abortErr(ctx, err)
}

func runGarbler(ctx context.Context, conn io.ReadWriter, cfg Config, aliceInput []bool, rnd io.Reader) (*Result, error) {
	rec, sched, g, err := setupGarbler(cfg, aliceInput, rnd)
	if err != nil {
		return nil, err
	}
	if err := rec.handshake(conn, cfg.OT); err != nil {
		return nil, err
	}
	res := &Result{}
	err = garbleFrames(ctx, cfg, sched, g, func(frame []byte) error {
		if _, err := conn.Write(frame); err != nil {
			return err
		}
		res.TableFrames++
		return nil
	})
	if err != nil {
		return nil, err
	}
	rec.finish(sched, g)
	res.Stats, res.Halted, res.Trace = rec.stats, rec.halted, sched.Trace()
	if res.Outputs, err = rec.exchangeOutputs(conn, cfg.Outputs); err != nil {
		return nil, err
	}
	return res, nil
}

// garbleFrames is the garbler's cycle loop: take the next compiled cycle,
// run the kernel appending its tables to a frame buffer behind a reserved
// header, and hand emit the whole msgTables frame, header filled in, at
// every frame boundary — the cycle-batch edge and, regardless of fill,
// the run's last cycle (halt or budget edge), where the evaluator expects
// the remainder; both sides derive identical boundaries from the shared
// public schedule. The buffer is refilled once emit returns.
func garbleFrames(ctx context.Context, cfg Config, sched *core.Schedule, g *core.Garbler, emit func(frame []byte) error) error {
	batch := cfg.batch()
	frame := wire.AppendHeader(nil, msgTables, 0)
	inBatch := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		ct := sched.Next()
		frame = g.GarbleCycleTraceAppend(ct, sched.Cycle(), frame)
		inBatch++
		if inBatch == batch || sched.Done() {
			wire.AppendHeader(frame[:0], msgTables, len(frame)-wire.HeaderLen)
			if err := emit(frame); err != nil {
				return err
			}
			frame = frame[:wire.HeaderLen]
			inBatch = 0
		}
		if sched.Done() {
			return nil
		}
		g.CopyDFFs()
	}
}

// schedule builds the role's source of compiled cycles: a live scheduler
// under the session's fingerprint seed, or cfg.Trace.
func (c Config) schedule(seed core.Seed) (*core.Schedule, error) {
	return core.NewSchedule(c.Circuit, c.Public, core.RunOpts{Cycles: c.Cycles, StopOutput: c.StopOutput,
		Seed: seed, Sink: c.Sink, Trace: c.Trace, Record: c.Record})
}

// RunEvaluator plays Bob.
func RunEvaluator(ctx context.Context, conn io.ReadWriter, cfg Config, bobInput []bool) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	stop := watchContext(ctx, conn)
	defer stop()
	res, err := runEvaluator(ctx, conn, cfg, bobInput)
	return res, abortErr(ctx, err)
}

func runEvaluator(ctx context.Context, conn io.ReadWriter, cfg Config, bobInput []bool) (*Result, error) {
	sid, err := cfg.SessionID()
	if err != nil {
		return nil, err
	}
	hello, err := readExact(conn, msgHello, helloLen)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(hello[:32], sid[:]) {
		return nil, fmt.Errorf("proto: garbler session mismatch")
	}
	var seed core.Seed
	copy(seed[:], hello[32:])
	if err := wire.Write(conn, msgHello, sid[:]); err != nil {
		return nil, err
	}

	sched, err := cfg.schedule(seed)
	if err != nil {
		return nil, err
	}
	e := core.NewReplayEvaluator(cfg.Circuit)
	aliceBytes, err := readExact(conn, msgAliceLabels, 16*cfg.Circuit.AliceBits)
	if err != nil {
		return nil, err
	}
	choices := make([]bool, cfg.Circuit.BobBits)
	for i := range choices {
		choices[i] = i < len(bobInput) && bobInput[i]
	}
	bobLabels, err := cfg.OT.receive(conn, hello, choices)
	if err != nil {
		return nil, fmt.Errorf("proto: OT: %w", err)
	}
	if err := e.SetInputs(unpackLabels(aliceBytes), bobLabels); err != nil {
		return nil, err
	}

	// The decode frame ends the garbler's side of every session; in
	// garbler-only mode it is empty, the decode bits never leave the
	// garbler.
	outWires := sched.OutputWires()
	decodeBits := len(outWires)
	if cfg.Outputs == OutputGarblerOnly {
		decodeBits = 0
	}
	res := &Result{}
	// From here the garbler only sends: its table frames, then the decode
	// frame that ends its side of the session. It sends nothing more until
	// our outputs frame, so a buffer over this stretch never holds bytes of
	// a later session on a reused connection, and it takes whatever has
	// arrived in one read instead of two reads per frame.
	stream := bufio.NewReaderSize(conn, streamBufBytes)
	if err := evalStream(ctx, stream, cfg, sched, e, res); err != nil {
		return nil, err
	}
	res.Stats, res.Halted, res.Trace = sched.Stats(), sched.Halted(), sched.Trace()

	// A table frame past the schedule's last cycle fails here, as a frame
	// of the wrong type.
	decBytes, err := readExact(stream, msgDecode, bitBytes(decodeBits))
	if err != nil {
		return nil, err
	}
	decode, err := unpackBits(decBytes, decodeBits)
	if err != nil {
		return nil, err
	}
	// The outputs frame ends this side of every session: the decoded
	// values in OutputBoth mode, the active labels' permute bits in
	// garbler-only mode (without the decode bits they reveal nothing to
	// us and everything to the garbler), empty in evaluator-only mode.
	out := make([]bool, len(outWires))
	for i, w := range outWires {
		v, pub := sched.OutputState(i)
		switch {
		case cfg.Outputs == OutputGarblerOnly:
			out[i] = !pub && e.ActiveBit(w)
		case pub:
			out[i] = v
		default:
			out[i] = e.ActiveBit(w) != decode[i]
		}
	}
	var reply []byte
	if cfg.Outputs != OutputEvaluatorOnly {
		reply = packBits(out)
	}
	if err := wire.Write(conn, msgOutputs, reply); err != nil {
		return nil, err
	}
	if cfg.Outputs != OutputGarblerOnly {
		res.Outputs = out
	}
	return res, nil
}

// evalStream is the evaluator's cycle loop: take the next compiled cycle,
// read a table frame at each batch start, run the kernel. Frame boundaries
// fall where the garbler puts them — the cycle-batch edge and the run's
// last cycle — because both sides step the same public schedule.
func evalStream(ctx context.Context, r io.Reader, cfg Config, sched *core.Schedule, e *core.Evaluator, res *Result) error {
	batch := cfg.batch()
	liveMax := batch * cfg.Circuit.Stats().NonXOR * gc.TableBytes
	var f tableFrame
	var pending []gc.Table // tables of the current frame not yet consumed
	inBatch := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		ct := sched.Next()
		cyc := sched.Cycle()
		var err error
		if inBatch == 0 {
			lo, hi := cfg.tableFrameBytes(cyc, liveMax)
			if pending, err = f.read(r, cfg, res, cyc, lo, hi); err != nil {
				return err
			}
		}
		if pending, err = e.EvalCycleTrace(ct, cyc, pending); err != nil {
			return err
		}
		inBatch++
		if inBatch == batch || sched.Done() {
			if len(pending) != 0 {
				return fmt.Errorf("proto: cycle %d: %d unconsumed tables at batch end", cyc, len(pending))
			}
			inBatch = 0
		}
		if sched.Done() {
			return nil
		}
		e.CopyDFFs()
	}
}

// tableFrameBytes is the size range of the table frame that starts at
// cycle cyc. A replaying evaluator knows it exactly from its trace: 32
// bytes per table of each cycle the frame covers, fewer cycles at the
// trace's end. A live one bounds it by liveMax, one table per non-XOR gate
// per cycle of the batch.
func (c Config) tableFrameBytes(cyc, liveMax int) (lo, hi int) {
	if c.Trace == nil {
		return 0, liveMax
	}
	n := 0
	for i := cyc; i < cyc+c.batch() && i <= c.Trace.NumCycles(); i++ {
		n += c.Trace.Cycle(i).NumTables() * gc.TableBytes
	}
	return n, n
}

// tableFrame holds the evaluator's table-frame buffers, reused from frame
// to frame: a frame is read only once the previous one's tables are all
// consumed. They grow only to a length the frame's header check accepted.
type tableFrame struct {
	payload []byte
	tables  []gc.Table
}

// read reads and parses one msgTables frame of lo to hi bytes, refusing
// any other size from its header. The tables it returns are valid until
// the next read.
func (f *tableFrame) read(r io.Reader, cfg Config, res *Result, cyc, lo, hi int) ([]gc.Table, error) {
	h, err := wire.ReadHeader(r)
	if err != nil {
		return nil, err
	}
	if f.payload, err = h.PayloadInto(f.payload, r, msgTables, lo, hi); err != nil {
		return nil, err
	}
	payload := f.payload
	if cfg.tapTables != nil {
		cfg.tapTables(payload)
	}
	res.TableFrames++
	if len(payload)%gc.TableBytes != 0 {
		return nil, fmt.Errorf("proto: cycle %d: ragged table frame of %d bytes", cyc, len(payload))
	}
	n := len(payload) / gc.TableBytes
	if cap(f.tables) < n {
		f.tables = make([]gc.Table, n)
	}
	tables := f.tables[:n]
	for i := range tables {
		tables[i].TG = gc.LabelFromBytes(payload[i*gc.TableBytes:])
		tables[i].TE = gc.LabelFromBytes(payload[i*gc.TableBytes+16:])
	}
	return tables, nil
}
