// Package proto runs the ARM2GC protocol between two parties over a byte
// stream (TCP in the cmd tools, net.Pipe in tests): circuit/parameter
// agreement, direct transfer of the garbler's input labels, IKNP oblivious
// transfer for the evaluator's labels (over base OTs a connection runs
// once, see OTState), garbled-table streaming (batched
// over CycleBatch cycles per frame) with SkipGate on both sides, and
// two-way output decoding. Each party's frames leave in flights
// (wire.Flight): a write once 2 KiB are pending, and before every read.
//
// Both parties replay a classification trace compiled from the same
// public data (core.Compile), so no classification information is ever
// exchanged — only garbled tables and labels cross the wire, exactly as in
// the paper.
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
	"runtime"
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
	// frame (default 1: a frame per cycle). Batching cuts the frame count,
	// and with it the header bytes, by the batch factor without changing
	// a single table byte; how many writes carry the frames is the
	// flights' business (wire.Flight). Both parties must agree; it is part
	// of the session id.
	CycleBatch int

	// Sink, when set, receives every cycle's scheduling outcome as the
	// cycle is produced, on both roles.
	Sink func(cycle int, cs core.CycleStats)

	// Trace is the compiled classification schedule (core.Compile) the
	// role replays: its kernel is fed the compiled cycles, so its hot
	// path is fixed-key-AES label work. It must come from the same
	// (circuit, public input, cycle budget, halt flag) tuple — see
	// core.Trace. A nil Trace is compiled, with no budget, before the
	// role's first frame and charged to PhaseCompile. It is local: not
	// part of the session id, and the wire stream is the same whether a
	// party brought its trace or compiled it.
	Trace *core.Trace

	// OT, when set, carries this party's base OTs across the sessions of
	// one connection (see OTState); nil runs fresh base OTs. Like Trace it
	// is local state, not part of the session id: the negotiation keeps
	// the two parties' states in step.
	OT *OTState

	// ID, when not zero, is SessionID's digest of this Config, computed
	// once by a caller that runs many sessions of one program and options
	// (a Server's registration, a Client's registered program); the roles
	// then hand it to the peer without digesting the Config again. A
	// wrong ID fails the handshake as a session mismatch.
	ID [32]byte

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

// sessionID is ID, or SessionID when ID is zero.
func (c Config) sessionID() ([32]byte, error) {
	if c.ID != ([32]byte{}) {
		return c.ID, nil
	}
	return c.SessionID()
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

// streamBufCap caps the evaluator's read buffer over the garbler's table
// stream.
const streamBufCap = 64 << 10

// helloLen is the garbler's hello payload: the session id, then 16 seed
// bytes the garbler draws. No schedule reads the seed (a replayed one
// needs no fingerprint seed); it enters only the OT extension's nonce,
// with the rest of the hello. The evaluator echoes the id alone.
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
	// wire, not of the flights that carried them; with CycleBatch > 1 it
	// is ~Cycles/CycleBatch.
	TableFrames int

	// Phases is this party's wall time in the run, from entry to its last
	// write, by phase. Its negotiate phase is the caller's, and so is its
	// compile phase unless Config.Trace was nil.
	Phases Phases
}

// inFlight runs one party's side of a session over a wire.Flight on
// conn, under ctx's watcher: the party's frames leave in flights, and the
// last one when run returns without error. The run's wall time, to the
// watcher's exit, is charged to phases on clk, whose connection calls it
// times under the flight.
func inFlight(ctx context.Context, conn io.ReadWriter, run func(ctx context.Context, f io.ReadWriter, clk *clock) (*Result, error)) (res *Result, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	clk := newClock()
	defer func() {
		if res != nil {
			clk.enter(clk.cur)
			res.Phases = clk.ph
		}
	}()
	stop := watchContext(ctx, conn)
	defer stop()
	f := wire.NewFlight(timedConn{conn: conn, clk: clk})
	if res, err = run(ctx, f, clk); err == nil {
		err = f.Flush()
	}
	if err != nil {
		return nil, abortErr(ctx, err)
	}
	return res, nil
}

// RunGarbler plays Alice.
func RunGarbler(ctx context.Context, conn io.ReadWriter, cfg Config, aliceInput []bool, rnd io.Reader) (*Result, error) {
	return inFlight(ctx, conn, func(ctx context.Context, f io.ReadWriter, clk *clock) (*Result, error) {
		return runGarbler(ctx, f, clk, cfg, aliceInput, rnd)
	})
}

func runGarbler(ctx context.Context, conn io.ReadWriter, clk *clock, cfg Config, aliceInput []bool, rnd io.Reader) (*Result, error) {
	rec, sched, g, err := setupGarbler(ctx, clk, cfg, aliceInput, rnd)
	if err != nil {
		return nil, err
	}
	if err := rec.handshake(conn, clk, cfg.OT); err != nil {
		return nil, err
	}
	// The handshake's last read woke this goroutine from the network
	// poller, and the table stream below computes for milliseconds without
	// blocking. The runtime starts no spinning thread when a goroutine
	// returns from a blocking netpoll, and sysmon polls only once the last
	// poll is 10 ms old, so until then no thread watches the poller: a
	// goroutine whose socket has data — the evaluator, when both parties
	// share a process — stays parked while an idle core waits, and the
	// two parties run one after the other. A yield wakes an idle P
	// (Gosched calls wakep), whose thread polls the network and runs that
	// goroutine beside the stream.
	runtime.Gosched()
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
	clk.enter(PhaseDecode)
	rec.finish(sched, g)
	res.Stats, res.Halted = rec.stats, rec.halted
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

// schedule builds the role's source of compiled cycles, a replay of
// c.Trace, which it compiles first when c has none: with no budget, and
// charged to PhaseCompile on clk.
func (c *Config) schedule(ctx context.Context, clk *clock) (*core.Schedule, error) {
	if c.Trace == nil {
		was := clk.phase()
		clk.enter(PhaseCompile)
		tr, err := core.Compile(ctx, c.Circuit, c.Public, core.CountOpts{Cycles: c.Cycles, StopOutput: c.StopOutput}, nil)
		clk.enter(was)
		if err != nil {
			return nil, err
		}
		c.Trace = tr
	}
	return core.NewSchedule(c.Circuit, c.Public, core.RunOpts{Cycles: c.Cycles, StopOutput: c.StopOutput,
		Sink: c.Sink, Trace: c.Trace})
}

// RunEvaluator plays Bob.
func RunEvaluator(ctx context.Context, conn io.ReadWriter, cfg Config, bobInput []bool) (*Result, error) {
	return inFlight(ctx, conn, func(ctx context.Context, f io.ReadWriter, clk *clock) (*Result, error) {
		return runEvaluator(ctx, f, clk, cfg, bobInput)
	})
}

// runEvaluator is Bob's session. It reads the garbler's opening flight —
// the hello, whose session id it checks, and Alice's labels — before it
// writes anything, and then answers with its echo of the session id and
// its first OT message in one flight, so a session on a held OT epoch
// turns from writing to reading once here, for the OT's label
// ciphertexts, which the table stream follows.
func runEvaluator(ctx context.Context, conn io.ReadWriter, clk *clock, cfg Config, bobInput []bool) (*Result, error) {
	sid, err := cfg.sessionID()
	if err != nil {
		return nil, err
	}
	sched, err := cfg.schedule(ctx, clk)
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
	aliceBytes, err := readExact(conn, msgAliceLabels, 16*cfg.Circuit.AliceBits)
	if err != nil {
		return nil, err
	}

	e := core.NewReplayEvaluator(cfg.Circuit)
	e.Reserve(cfg.Trace.Width())
	if err := wire.Write(conn, msgHello, sid[:]); err != nil {
		return nil, err
	}
	choices := make([]bool, cfg.Circuit.BobBits)
	for i := range choices {
		choices[i] = i < len(bobInput) && bobInput[i]
	}
	bobLabels, err := cfg.OT.receive(conn, clk, hello, choices)
	if err != nil {
		return nil, fmt.Errorf("proto: OT: %w", err)
	}
	clk.enter(PhaseKernel)
	if err := e.SetInputs(unpackLabels(aliceBytes), bobLabels); err != nil {
		return nil, err
	}

	res := &Result{}
	// From here the garbler only sends: its table frames, then the decode
	// frame that ends its side of the session. It sends nothing more until
	// our outputs frame, so a buffer over this stretch never holds bytes of
	// a later session on a reused connection, and it takes whatever has
	// arrived in one read instead of two reads per frame.
	stream := bufio.NewReaderSize(conn, cfg.streamBufBytes())
	if err := evalStream(ctx, stream, cfg, sched, e, res); err != nil {
		return nil, err
	}
	clk.enter(PhaseDecode)
	res.Stats, res.Halted = sched.Stats(), sched.Halted()

	// The decode frame ends the garbler's side of every session; in
	// garbler-only mode it is empty, the decode bits never leave the
	// garbler. The output labels' slots are known once the last cycle ran.
	outSlots := sched.OutputSlots()
	decodeBits := len(outSlots)
	if cfg.Outputs == OutputGarblerOnly {
		decodeBits = 0
	}

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
	out := make([]bool, len(outSlots))
	for i, w := range outSlots {
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
// last cycle — because both sides step the same public schedule, and each
// frame is read at the size the trace gives it.
func evalStream(ctx context.Context, r io.Reader, cfg Config, sched *core.Schedule, e *core.Evaluator, res *Result) error {
	var payload []byte // the frame buffer, reused: read only once its tables are consumed
	var pending []byte // tables of the current frame not yet consumed
	for inBatch := 0; ; inBatch = (inBatch + 1) % cfg.batch() {
		if err := ctx.Err(); err != nil {
			return err
		}
		ct := sched.Next()
		cyc := sched.Cycle()
		var err error
		if inBatch == 0 {
			if payload, err = readTables(r, cfg, res, payload, cfg.tableFrameBytes(cyc)); err != nil {
				return err
			}
			pending = payload
		}
		if pending, err = e.EvalCycleTraceBytes(ct, cyc, pending); err != nil {
			return err
		}
		if sched.Done() {
			return nil
		}
		e.CopyDFFs()
	}
}

// tableFrameBytes is the exact size of the table frame that starts at
// cycle cyc, from the trace: 32 bytes per table of each cycle the frame
// covers, fewer cycles at the trace's end.
func (c Config) tableFrameBytes(cyc int) int {
	n := 0
	for i := cyc; i < cyc+c.batch() && i <= c.Trace.NumCycles(); i++ {
		n += c.Trace.Cycle(i).NumTables() * gc.TableBytes
	}
	return n
}

// streamBufBytes sizes the evaluator's read buffer over the garbler's
// side of the stream, which is its table frames and then the decode
// frame: that side's exact byte count from the trace, up to streamBufCap.
func (c Config) streamBufBytes() int {
	cycles, batch := c.Trace.NumCycles(), c.batch()
	frames := (cycles + batch - 1) / batch
	decodeBits := 0
	if c.Outputs != OutputGarblerOnly {
		for _, o := range c.Circuit.Outputs {
			decodeBits += len(o.Wires)
		}
	}
	n := c.Trace.TotalStats().Tables()*gc.TableBytes + (frames+1)*wire.HeaderLen + bitBytes(decodeBits)
	return min(n, streamBufCap)
}

// readTables reads one msgTables frame of exactly n bytes into buf, grown
// only once the header check accepted the length, refusing any other size
// from its header. The kernel reads the tables where the payload holds
// them.
func readTables(r io.Reader, cfg Config, res *Result, buf []byte, n int) ([]byte, error) {
	h, err := wire.ReadHeader(r)
	if err != nil {
		return nil, err
	}
	payload, err := h.PayloadInto(buf, r, msgTables, n, n)
	if err != nil {
		return nil, err
	}
	if cfg.tapTables != nil {
		cfg.tapTables(payload)
	}
	res.TableFrames++
	return payload, nil
}
