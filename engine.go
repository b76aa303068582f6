package arm2gc

import (
	"context"
	"fmt"
	"io"

	"arm2gc/internal/circuit"
	"arm2gc/internal/core"
	"arm2gc/internal/cpu"
	"arm2gc/internal/obliv"
	"arm2gc/internal/proto"
	"arm2gc/internal/sim"
)

// OutputMode selects who learns a two-party execution's outputs (the
// paper's "one or both of them learn the output c"). The default is
// OutputBoth; use WithOutputMode to restrict decoding to one side.
type OutputMode = proto.OutputMode

// Output modes, re-exported at the root so callers never import internal
// packages.
const (
	OutputBoth          = proto.OutputBoth
	OutputGarblerOnly   = proto.OutputGarblerOnly
	OutputEvaluatorOnly = proto.OutputEvaluatorOnly
)

// DefaultMaxCycles is the cycle budget a Session runs with unless
// WithMaxCycles overrides it.
const DefaultMaxCycles = 1_000_000

// DefaultTraceCacheBytes bounds an Engine's classification-trace cache
// (see Session). A compiled trace costs roughly 20 bytes per live
// gate-cycle — a 500-cycle program on the 256-word layout compiles to a
// few MB — so the default comfortably holds dozens of programs; least
// recently replayed traces are evicted beyond the budget. Recordings in
// flight draw on the same budget, so an Engine never holds more than it in
// traces however many sessions record at once; a program whose trace
// alone outgrows it is never cached, and its sessions classify every
// cycle.
const DefaultTraceCacheBytes = 256 << 20

// Engine is the process-wide entry point of the API: a concurrency-safe
// factory of garbled-processor sessions with a layout-keyed machine
// cache. Synthesizing the processor netlist costs ~10ms for the 256-word
// layouts (~29k wires), so the Engine builds each Layout exactly once —
// concurrent requests for the same Layout share one in-flight build — and
// every Session over that geometry reuses the immutable netlist. It also
// holds the classification-trace cache every Session runs through (see
// Session).
//
// An Engine is safe for concurrent use; a server typically holds one for
// its lifetime. The cache never evicts (entries are a few MB and layouts
// are few); create a throwaway Engine for one-off geometries if that ever
// matters.
type Engine struct {
	cache  *cpu.Cache
	traces *cpu.TraceCache
}

// NewEngine creates an Engine with its own empty caches. DefaultEngine
// serves callers that do not need cache isolation.
func NewEngine() *Engine { return newEngine(DefaultTraceCacheBytes) }

// newEngine creates an Engine whose trace cache, and so every recording,
// is bounded by traceBytes.
func newEngine(traceBytes int64) *Engine {
	return &Engine{cache: new(cpu.Cache), traces: cpu.NewTraceCache(traceBytes)}
}

// DefaultEngine serves callers that need no Engine of their own (and a
// Server built over a nil Engine). It shares the process-wide machine
// cache with the internal tooling, so a binary mixing both (the bencher)
// never synthesizes a layout twice.
var DefaultEngine = &Engine{cache: cpu.SharedCache(), traces: cpu.NewTraceCache(DefaultTraceCacheBytes)}

// Builds reports how many netlist syntheses this Engine has performed —
// an observable for cache-effectiveness tests and monitoring.
func (e *Engine) Builds() int64 { return e.cache.Builds() }

// TraceRecordings reports how many classification traces this Engine's
// sessions have set out to record — the first session of each program
// pays one. Like Builds, an observable for cache-effectiveness tests and
// monitoring.
func (e *Engine) TraceRecordings() int64 { return e.traces.Recordings() }

// TraceReplays reports how many session runs were served from a cached
// classification trace, skipping the SkipGate pass entirely.
func (e *Engine) TraceReplays() int64 { return e.traces.Replays() }

// StatsSink receives per-cycle scheduling statistics as a run progresses
// (see WithStatsSink). It is called synchronously from the cycle loop, so
// it must be fast; hand off to a channel for slow consumers.
type StatsSink func(CycleUpdate)

// CycleUpdate is one cycle's scheduling outcome, streamed to a StatsSink.
type CycleUpdate struct {
	Cycle int // 1-based clock cycle
	Stats core.CycleStats
}

// sessionConfig collects the option-settable knobs of a Session. The
// *Set flags record which negotiable knobs were set explicitly: a Client
// proposes only those to a Server and takes the registered defaults for
// the rest.
type sessionConfig struct {
	maxCycles     int
	maxCyclesSet  bool
	outputs       OutputMode
	outputsSet    bool
	cycleBatch    int
	cycleBatchSet bool
	garblerInput  []uint32
	rand          io.Reader
	sink          StatsSink
	authToken     string
	authorize     func(Peer, string) error
	retries       int
}

// Option configures a Session (functional options).
type Option func(*sessionConfig)

// WithMaxCycles sets the cycle budget (default DefaultMaxCycles). Runs
// stop earlier at the program's halt flag; the budget bounds runaway
// programs. A Client proposing a budget must stay within the Server
// registration's budget, or the session is rejected.
func WithMaxCycles(n int) Option {
	return func(c *sessionConfig) { c.maxCycles = n; c.maxCyclesSet = true }
}

// WithOutputMode restricts which party's networked run decodes the
// outputs (default OutputBoth). Both parties must configure the same
// mode; it is part of the protocol's session id, so a mismatch aborts the
// handshake — and a Server rejects a Client proposing a mode other than
// the registered one (who learns the result is server policy).
// In-process Run ignores the mode (it plays both parties).
func WithOutputMode(m OutputMode) Option {
	return func(c *sessionConfig) { c.outputs = m; c.outputsSet = true }
}

// WithCycleBatch makes the networked protocol pack n cycles of garbled
// tables into each table frame (default 1), cutting the frame count — and
// the per-frame syscall and round-trip overhead — by ~n× without changing
// any table byte. Both parties must agree on n (it is part of the session
// id). Larger batches trade streaming latency for throughput.
func WithCycleBatch(n int) Option {
	return func(c *sessionConfig) { c.cycleBatch = n; c.cycleBatchSet = true }
}

// WithTraceReuse does nothing: every session draws on the Engine's
// classification-trace cache (see Session).
//
// Deprecated: trace reuse is how every session runs; drop the option.
func WithTraceReuse() Option { return func(*sessionConfig) {} }

// WithReadAhead does nothing: an evaluating session reads its frames
// synchronously, and the kernel's socket buffer keeps a fast garbler
// streaming while labels evaluate.
//
// Deprecated: read-ahead is gone; drop the option.
func WithReadAhead(depth int) Option { return func(*sessionConfig) {} }

// WithGarblerInput fixes Alice's input words on a session's garbling
// side. Server registrations use it to bind the server's private input to
// a program: Server sessions garble with these words (nil means an
// all-zero input region). Session.Garble's explicit argument takes
// precedence when non-nil; evaluating sessions ignore the option.
func WithGarblerInput(alice []uint32) Option {
	return func(c *sessionConfig) { c.garblerInput = alice }
}

// WithAuthToken sets a bearer token on a session. It is symmetric: in a
// Server registration's defaults it is the token clients must present to
// propose that program; on a Client's Evaluate it is the token carried in
// the proposal's Auth field. The token never enters the session id or any
// cryptographic material — it is pure admission policy — and on a
// plaintext connection it crosses the wire in the clear, so pair it with
// TLS (WithTLSConfig / WithDialTLS) outside of tests.
func WithAuthToken(token string) Option {
	return func(c *sessionConfig) { c.authToken = token }
}

// WithRetry makes a Client's Evaluate re-propose a session up to n extra
// times when the peer sheds it with a Retry-After hint (see
// RetryableError), sleeping a jittered backoff derived from the hint
// between attempts (default 0: surface the first shed). Only hinted
// rejections retry — a plain policy rejection (unknown program, bad
// token) is permanent and retrying it is pointless. Retries happen
// strictly at the negotiation stage, before any cryptographic material
// has flowed; a session that failed mid-run is never replayed. Garbling
// sessions and the in-process Run ignore the option.
func WithRetry(n int) Option {
	return func(c *sessionConfig) { c.retries = n }
}

// WithAuthorize sets a per-program admission callback on a Server
// registration: during negotiation fn is called with the proposing peer
// (its address, bearer token if any, and TLS state including verified
// client certificates under mutual TLS) and the proposed program name.
// A non-nil error rejects the proposal — before any cryptography runs and
// without dropping the connection; the error text is sent to the client
// as the rejection reason. It composes with WithAuthToken: the token
// check runs first. Evaluating sessions ignore the option.
func WithAuthorize(fn func(peer Peer, program string) error) Option {
	return func(c *sessionConfig) { c.authorize = fn }
}

// WithStatsSink streams every cycle's scheduling statistics to sink as
// the run progresses — live SkipGate telemetry for long executions.
func WithStatsSink(sink StatsSink) Option { return func(c *sessionConfig) { c.sink = sink } }

// Session is one garbled execution of a program: a cached Machine plus
// the per-run configuration. Sessions are cheap — all the weight lives in
// the Engine's caches — so create one per execution. A Session is
// stateless across its method calls; reusing one for several sequential
// runs is fine, but a single networked run should own its connection.
//
// Every run goes through the Engine's classification-trace cache. The
// SkipGate schedule is a pure function of public data, so the first run
// of a program (same circuit, public inputs, cycle budget and stop flag)
// records it as a compiled trace, and every later run replays it, garbling
// or evaluating straight from precompiled gate lists with no
// classification pass at all. The replayed wire stream is byte-identical
// to a classified one, so none of this is part of the session id: a
// replaying party interoperates with a classifying peer. Concurrent first
// runs singleflight the recording (one records, the rest classify without
// recording). Recordings draw their bytes from the cache budget
// (DefaultTraceCacheBytes) as they grow; one the budget refuses is dropped
// and the run carries on classifying, and a program whose trace alone
// outgrows the budget is never recorded again. Observe
// effectiveness via Engine.TraceRecordings and Engine.TraceReplays.
type Session struct {
	m    *Machine
	prog *Program
	cfg  sessionConfig
	eng  *Engine // its trace cache serves every run
}

// Session creates a session for a program, drawing the machine from the
// layout cache (the first session for a Layout pays the netlist build;
// every later one finds it for free). The machine's oblivious data memory
// follows the auto rule — the linear scan below obliv.DefaultThreshold
// data words, the square-root ORAM at or above — so it is a function of
// the public layout both parties already share.
func (e *Engine) Session(p *Program, opts ...Option) (*Session, error) {
	cfg, err := newSessionConfig(opts)
	if err != nil {
		return nil, err
	}
	c, err := e.cache.GetMem(p.Layout, obliv.Config{})
	if err != nil {
		return nil, err
	}
	return &Session{m: &Machine{cpu: c}, prog: p, cfg: cfg, eng: e}, nil
}

// newSessionConfig applies opts over the defaults and validates — the one
// place session defaults live.
func newSessionConfig(opts []Option) (sessionConfig, error) {
	cfg := sessionConfig{maxCycles: DefaultMaxCycles, cycleBatch: 1}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.maxCycles <= 0 {
		return cfg, fmt.Errorf("arm2gc: WithMaxCycles(%d): cycle budget must be positive", cfg.maxCycles)
	}
	if cfg.cycleBatch < 1 {
		return cfg, fmt.Errorf("arm2gc: WithCycleBatch(%d): batch must be at least 1", cfg.cycleBatch)
	}
	if cfg.retries < 0 {
		return cfg, fmt.Errorf("arm2gc: WithRetry(%d): retry count cannot be negative", cfg.retries)
	}
	return cfg, nil
}

// Machine exposes the session's shared processor instance.
func (s *Session) Machine() *Machine { return s.m }

// Program returns the program this session executes.
func (s *Session) Program() *Program { return s.prog }

// coreSink adapts the session's StatsSink to the cycle-loop callback.
func (s *Session) coreSink() func(int, core.CycleStats) {
	if s.cfg.sink == nil {
		return nil
	}
	sink := s.cfg.sink
	return func(cyc int, cs core.CycleStats) { sink(CycleUpdate{Cycle: cyc, Stats: cs}) }
}

// traceKey identifies this session's schedule in the Engine's trace
// cache. The SkipGate schedule is a pure function of the circuit, the
// public input bits, the cycle budget (the final cycle switches fanout
// handling) and the stop flag — exactly the key's fields.
func (s *Session) traceKey(pub []bool) cpu.TraceKey {
	return cpu.TraceKey{Circuit: s.m.cpu.Circuit, Pub: cpu.TracePubDigest(pub),
		Cycles: s.cfg.maxCycles, Stop: "halted"}
}

// traceSession is one run's view of the Engine trace cache: a cached
// trace to replay, or a claimed recording slot to settle after the run,
// or neither (another run holds the slot, or no trace of the program fits
// the cache): classify without recording.
type traceSession struct {
	cache    *cpu.TraceCache
	key      cpu.TraceKey
	trace    *core.Trace       // replay this when non-nil
	record   core.RecordBudget // non-nil: this run holds the key's recording slot
	recorded *core.Trace       // what a completed run recorded
}

func (s *Session) traceFor(pub []bool) traceSession {
	cache, key := s.eng.traces, s.traceKey(pub)
	ts := traceSession{cache: cache, key: key, trace: cache.Lookup(key)}
	if ts.trace == nil && cache.BeginRecord(key) {
		ts.record = func(n int) bool { return cache.Reserve(key, n) }
	}
	return ts
}

// settle, deferred by each run, commits what a completed run recorded.
// Otherwise — the run failed, a panic is unwinding through it, or the
// cache refused the recording its bytes — it aborts the slot, leaving a
// tombstone when the trace alone outgrew the cache. A no-op unless this
// run claimed the recording.
func (ts *traceSession) settle() {
	switch {
	case ts.record == nil:
	case ts.recorded != nil:
		ts.cache.Commit(ts.key, ts.recorded)
	default:
		ts.cache.Abort(ts.key)
	}
}

// Run executes the full garbled protocol in process (both parties), with
// real garbling and evaluation; use it to validate programs and measure
// costs before deploying the two-party version. Cancelling ctx aborts the
// cycle loop with ctx.Err().
func (s *Session) Run(ctx context.Context, alice, bob []uint32) (*RunInfo, error) {
	pub, ab, bb, err := s.m.inputs(s.prog, alice, bob)
	if err != nil {
		return nil, err
	}
	ts := s.traceFor(pub)
	defer ts.settle()
	res, err := core.RunLocal(ctx, s.m.cpu.Circuit, sim.Inputs{Public: pub, Alice: ab, Bob: bb},
		core.RunOpts{Cycles: s.cfg.maxCycles, StopOutput: "halted", Rand: s.cfg.rand, Sink: s.coreSink(),
			Trace: ts.trace, Record: ts.record})
	if err != nil {
		return nil, err
	}
	ts.recorded = res.Trace
	return s.m.info(s.prog, res.Outputs, res.Stats, res.Halted), nil
}

// Count measures the garbled-table counts of the program without doing
// any cryptography (the schedule is independent of label values, so the
// counts are exact). Cancelling ctx aborts with ctx.Err().
func (s *Session) Count(ctx context.Context) (*RunInfo, error) {
	pub, err := s.m.cpu.PublicBits(s.prog)
	if err != nil {
		return nil, err
	}
	// A cached trace already holds the exact schedule totals; serve them
	// without re-counting. (With a per-cycle sink the count still runs,
	// so the sink sees every cycle.) Count never records — it produces
	// no trace — so a miss just falls through.
	if s.cfg.sink == nil {
		if tr := s.eng.traces.Lookup(s.traceKey(pub)); tr != nil {
			return s.m.info(s.prog, nil, tr.TotalStats(), tr.Halted()), nil
		}
	}
	st, halted, err := core.Count(ctx, s.m.cpu.Circuit, pub,
		core.CountOpts{Cycles: s.cfg.maxCycles, StopOutput: "halted", Sink: s.coreSink()})
	if err != nil {
		return nil, err
	}
	return s.m.info(s.prog, nil, st, halted), nil
}

// Garble plays Alice (the garbler) over a connection: she contributes the
// alice[] input array and, unless WithOutputMode says otherwise, learns
// the outputs. Cancelling ctx aborts the protocol — including any
// in-flight read or write when conn supports deadlines (every net.Conn
// does) — with an error wrapping ctx.Err().
func (s *Session) Garble(ctx context.Context, conn io.ReadWriter, alice []uint32) (*RunInfo, error) {
	return s.garble(ctx, conn, alice, nil)
}

// garble is Garble over a connection's OT state (nil: fresh base OTs).
func (s *Session) garble(ctx context.Context, conn io.ReadWriter, alice []uint32, st *proto.OTState) (*RunInfo, error) {
	if alice == nil {
		alice = s.cfg.garblerInput
	}
	pub, ab, err := s.m.partyBits(s.prog, circuit.Alice, alice)
	if err != nil {
		return nil, err
	}
	ts := s.traceFor(pub)
	defer ts.settle()
	cfg := s.protoConfig(pub)
	cfg.Trace, cfg.Record, cfg.OT = ts.trace, ts.record, st
	res, err := proto.RunGarbler(ctx, conn, cfg, ab, s.cfg.rand)
	if err != nil {
		return nil, err
	}
	ts.recorded = res.Trace
	info := s.m.info(s.prog, res.Outputs, res.Stats, res.Halted)
	info.TableFrames = res.TableFrames
	return info, nil
}

// record is the garble-ahead pool's offline phase: it garbles this
// session's complete table stream into memory, with no peer, through
// exactly the loop a live garble uses, so serving the result later is
// byte-identical to garbling live. It garbles the registration's garbler
// input (WithGarblerInput; nil means all-zero). Cancelling ctx aborts
// between cycles.
func (s *Session) record(ctx context.Context) (*proto.Recorded, error) {
	pub, ab, err := s.m.partyBits(s.prog, circuit.Alice, s.cfg.garblerInput)
	if err != nil {
		return nil, err
	}
	ts := s.traceFor(pub)
	defer ts.settle()
	cfg := s.protoConfig(pub)
	cfg.Trace, cfg.Record = ts.trace, ts.record
	rec, res, err := proto.RecordGarbler(ctx, cfg, ab, s.cfg.rand)
	if err != nil {
		return nil, err
	}
	ts.recorded = res.Trace
	return rec, nil
}

// garbleRecorded plays Alice from a pre-garbled stream over a
// connection's OT state: the online phase is the handshake, OT and frame
// I/O, with no garbling at all. The stream must have been recorded by a
// session with the same program, public input and negotiated options (its
// session id is checked), and must never have been served before.
func (s *Session) garbleRecorded(ctx context.Context, conn io.ReadWriter, rec *proto.Recorded, st *proto.OTState) (*RunInfo, error) {
	pub, err := s.m.cpu.PublicBits(s.prog)
	if err != nil {
		return nil, err
	}
	cfg := s.protoConfig(pub)
	cfg.OT = st
	res, err := proto.ServeRecorded(ctx, conn, cfg, rec)
	if err != nil {
		return nil, err
	}
	info := s.m.info(s.prog, res.Outputs, res.Stats, res.Halted)
	info.TableFrames = res.TableFrames
	return info, nil
}

// Evaluate plays Bob (the evaluator) over a connection. Cancellation
// behaves as in Garble. It runs fresh base OTs, since it cannot know what
// the connection's last negotiation granted; a Client carries them across
// its sessions instead.
func (s *Session) Evaluate(ctx context.Context, conn io.ReadWriter, bob []uint32) (*RunInfo, error) {
	return s.evaluate(ctx, conn, bob, nil)
}

// evaluate is Evaluate over a connection's OT state.
func (s *Session) evaluate(ctx context.Context, conn io.ReadWriter, bob []uint32, st *proto.OTState) (*RunInfo, error) {
	pub, bb, err := s.m.partyBits(s.prog, circuit.Bob, bob)
	if err != nil {
		return nil, err
	}
	ts := s.traceFor(pub)
	defer ts.settle()
	cfg := s.protoConfig(pub)
	cfg.Trace, cfg.Record, cfg.OT = ts.trace, ts.record, st
	res, err := proto.RunEvaluator(ctx, conn, cfg, bb)
	if err != nil {
		return nil, err
	}
	ts.recorded = res.Trace
	info := s.m.info(s.prog, res.Outputs, res.Stats, res.Halted)
	info.TableFrames = res.TableFrames
	return info, nil
}

func (s *Session) protoConfig(pub []bool) proto.Config {
	return proto.Config{
		Circuit:    s.m.cpu.Circuit,
		Public:     pub,
		Cycles:     s.cfg.maxCycles,
		StopOutput: "halted",
		Outputs:    s.cfg.outputs,
		CycleBatch: s.cfg.cycleBatch,
		Sink:       s.coreSink(),
	}
}

// sessionID is the protocol session digest this session would handshake
// with; Server and Client exchange it during negotiation to verify full
// program/layout/option agreement before a run starts.
func (s *Session) sessionID() ([32]byte, error) {
	pub, err := s.m.cpu.PublicBits(s.prog)
	if err != nil {
		return [32]byte{}, err
	}
	return s.protoConfig(pub).SessionID()
}

// Verify cross-checks a garbled run against native execution, returning
// an error on any mismatch — the quickest way to validate a new program.
// The machine comes from the Engine cache, so verifying after a Run (or
// cross-checking many programs on one layout) pays no extra netlist
// build.
func (e *Engine) Verify(ctx context.Context, p *Program, alice, bob []uint32, opts ...Option) (*RunInfo, error) {
	s, err := e.Session(p, opts...)
	if err != nil {
		return nil, err
	}
	want, _, err := Emulate(p, alice, bob, s.cfg.maxCycles)
	if err != nil {
		return nil, err
	}
	info, err := s.Run(ctx, alice, bob)
	if err != nil {
		return nil, err
	}
	for i := range want {
		if info.Outputs[i] != want[i] {
			return nil, fmt.Errorf("arm2gc: garbled output[%d] = %#x, native %#x", i, info.Outputs[i], want[i])
		}
	}
	return info, nil
}
