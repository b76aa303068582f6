package arm2gc

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

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
// recently replayed traces are evicted beyond the budget. Compiles in
// flight draw on the same budget, so an Engine never holds more than it in
// traces however many sessions compile at once; a program whose trace
// alone outgrows it has no networked session (ErrTraceBudget).
const DefaultTraceCacheBytes = 256 << 20

// ErrTraceBudget is what a networked session fails with, before it writes
// any frame, when the program's classification trace alone outgrows its
// Engine's trace-cache budget (DefaultTraceCacheBytes); match it with
// errors.Is. A Server then rejects the program's proposals before the
// grant.
var ErrTraceBudget = core.ErrTraceBudget

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

// newEngine creates an Engine whose trace cache, and so every compile, is
// bounded by traceBytes.
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
// sessions have set out to compile — the first session of each program
// pays one, and concurrent first sessions share it. Like Builds, an
// observable for cache-effectiveness tests and monitoring.
func (e *Engine) TraceRecordings() int64 { return e.traces.Compiles() }

// TraceReplays reports how many session runs were served a classification
// trace they did not compile themselves — cached, or compiled by a
// concurrent session they waited for — skipping the SkipGate pass
// entirely.
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
// compiles it into a trace before its first cryptographic step — with no
// peer and no label — and then replays it, as every later run does,
// garbling or evaluating straight from precompiled gate lists with no
// classification pass at all. A networked run compiles after the grant,
// so both parties' compiles overlap. The trace is local: it is not part
// of the session id, and the wire stream is the same whichever party
// compiled and whichever waited. Concurrent first runs singleflight the
// compile: one compiles, the rest wait for it and replay. A compile draws
// its bytes from the cache budget (DefaultTraceCacheBytes) as it grows; a
// program whose trace alone outgrows the budget is never compiled again,
// and its networked runs fail with ErrTraceBudget before any frame (Run,
// in process, classifies such a program live instead). Observe
// effectiveness via Engine.TraceRecordings and Engine.TraceReplays.
type Session struct {
	m   *Machine
	cfg sessionConfig
	eng *Engine       // its trace cache serves every run
	ps  *programState // the program, its public input bits and session ids

	// key identifies the run's schedule in the Engine's trace cache. The
	// SkipGate schedule is a pure function of the circuit, the public
	// input bits, the cycle budget (the final cycle switches fanout
	// handling) and the stop flag — exactly the key's fields.
	key cpu.TraceKey
}

// Session creates a session for a program, drawing the machine from the
// layout cache (the first session for a Layout pays the netlist build;
// every later one finds it for free). The machine's oblivious data memory
// follows the auto rule — the linear scan below obliv.DefaultThreshold
// data words, the square-root ORAM at or above — so it is a function of
// the public layout both parties already share. The program's public
// input, and the trace key it digests to, are computed here once.
func (e *Engine) Session(p *Program, opts ...Option) (*Session, error) {
	cfg, err := newSessionConfig(opts)
	if err != nil {
		return nil, err
	}
	ps, err := e.programState(p)
	if err != nil {
		return nil, err
	}
	return e.session(ps, cfg), nil
}

// programState is what every session of one program on one Engine
// shares, computed once — for a Server per registration, for a Client per
// registered program: the machine, the program's public input bits and
// their trace-key digest, and the session ids of the resolved options its
// sessions ran under.
type programState struct {
	prog   *Program
	m      *Machine
	pub    []bool
	digest [32]byte // cpu.TracePubDigest(pub)

	mu  sync.Mutex
	ids map[idKey][32]byte // at most maxMemoIDs entries
}

// idKey is what a session id depends on beyond the program: the resolved
// cycle budget, cycle batch and output mode.
type idKey struct {
	cycles, batch int
	outputs       OutputMode
}

// maxMemoIDs bounds a programState's session-id memo: a peer proposing
// ever new budgets or batches gets correct ids, digested afresh past the
// bound, and cannot grow the memo.
const maxMemoIDs = 16

// programState computes p's shared state on e's machine for its layout.
func (e *Engine) programState(p *Program) (*programState, error) {
	c, err := e.machine(p)
	if err != nil {
		return nil, err
	}
	pub, err := c.PublicBits(p)
	if err != nil {
		return nil, err
	}
	return &programState{prog: p, m: &Machine{cpu: c}, pub: pub, digest: cpu.TracePubDigest(pub),
		ids: make(map[idKey][32]byte)}, nil
}

// session is a Session of ps's program under the validated cfg.
func (e *Engine) session(ps *programState, cfg sessionConfig) *Session {
	key := cpu.TraceKey{Circuit: ps.m.cpu.Circuit, Pub: ps.digest, Cycles: cfg.maxCycles, Stop: "halted"}
	return &Session{m: ps.m, cfg: cfg, eng: e, ps: ps, key: key}
}

// sessionID returns the session id of cfg, a Config of ps's program,
// from the memo or digested and memoized.
func (ps *programState) sessionID(cfg proto.Config) ([32]byte, error) {
	k := idKey{cycles: cfg.Cycles, batch: cfg.CycleBatch, outputs: cfg.Outputs}
	ps.mu.Lock()
	id, ok := ps.ids[k]
	ps.mu.Unlock()
	if ok {
		return id, nil
	}
	id, err := cfg.SessionID()
	if err != nil {
		return id, err
	}
	ps.mu.Lock()
	if len(ps.ids) < maxMemoIDs {
		ps.ids[k] = id
	}
	ps.mu.Unlock()
	return id, nil
}

// machine draws p's processor from the layout cache, building it on the
// layout's first use: the one cache key Session and Client.Register share.
func (e *Engine) machine(p *Program) (*cpu.CPU, error) {
	return e.cache.GetMem(p.Layout, obliv.Config{})
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
func (s *Session) Program() *Program { return s.ps.prog }

// coreSink adapts the session's StatsSink to the cycle-loop callback.
func (s *Session) coreSink() func(int, core.CycleStats) {
	if s.cfg.sink == nil {
		return nil
	}
	sink := s.cfg.sink
	return func(cyc int, cs core.CycleStats) { sink(CycleUpdate{Cycle: cyc, Stats: cs}) }
}

// trace returns this session's compiled trace from the Engine's cache,
// compiling it on a miss or waiting for a concurrent session's compile
// (see Session); it fails with ErrTraceBudget when the program's trace
// alone outgrows the cache. compile is the time spent compiling or
// waiting: zero when the trace was cached.
func (s *Session) trace(ctx context.Context) (tr *core.Trace, compile time.Duration, err error) {
	start := time.Now()
	tr, cached, err := s.eng.traces.Get(ctx, s.key, s.compiler())
	if !cached {
		compile = time.Since(start)
	}
	return tr, compile, err
}

// compiler compiles this session's trace: the whole run, with no
// executor, drawing from the cache's budget.
func (s *Session) compiler() cpu.Compiler {
	c, pub, cycles := s.m.cpu.Circuit, s.ps.pub, s.cfg.maxCycles
	return func(ctx context.Context, budget core.RecordBudget) (*core.Trace, error) {
		return core.Compile(ctx, c, pub, core.CountOpts{Cycles: cycles, StopOutput: "halted"}, budget)
	}
}

// Run executes the full garbled protocol in process (both parties), with
// real garbling and evaluation; use it to validate programs and measure
// costs before deploying the two-party version. A program whose trace
// outgrows the Engine's trace cache runs too, classifying every cycle
// live: that run keeps per-cycle SkipGate only, so it garbles the tables
// the compiled trace's liveness pass would drop and reports 0
// DroppedTables. Cancelling ctx aborts the cycle loop with ctx.Err().
func (s *Session) Run(ctx context.Context, alice, bob []uint32) (*RunInfo, error) {
	ab, err := s.m.cpu.InputBits(circuit.Alice, alice)
	if err != nil {
		return nil, err
	}
	bb, err := s.m.cpu.InputBits(circuit.Bob, bob)
	if err != nil {
		return nil, err
	}
	tr, _, err := s.trace(ctx)
	if errors.Is(err, ErrTraceBudget) {
		tr, err = nil, nil
	}
	if err != nil {
		return nil, err
	}
	res, err := core.RunLocal(ctx, s.m.cpu.Circuit, sim.Inputs{Public: s.ps.pub, Alice: ab, Bob: bb},
		core.RunOpts{Cycles: s.cfg.maxCycles, StopOutput: "halted", Rand: s.cfg.rand, Sink: s.coreSink(), Trace: tr})
	if err != nil {
		return nil, err
	}
	return s.m.info(s.ps.prog, res.Outputs, res.Stats, res.Halted), nil
}

// Count measures the garbled-table counts of the program without doing
// any cryptography (the schedule is independent of label values, so the
// counts are exact): GarbledTables is what a networked session puts on
// the wire. Cancelling ctx aborts with ctx.Err().
func (s *Session) Count(ctx context.Context) (*RunInfo, error) {
	// A cached trace already holds the exact schedule totals; serve them
	// without re-counting. (With a per-cycle sink the count still runs,
	// so the sink sees every cycle.) A miss compiles outside the cache:
	// core.Count keeps only the totals, and no session's budget is spent.
	if s.cfg.sink == nil {
		if tr := s.eng.traces.Lookup(s.key); tr != nil {
			return s.m.info(s.ps.prog, nil, tr.TotalStats(), tr.Halted()), nil
		}
	}
	st, halted, err := core.Count(ctx, s.m.cpu.Circuit, s.ps.pub,
		core.CountOpts{Cycles: s.cfg.maxCycles, StopOutput: "halted", Sink: s.coreSink()})
	if err != nil {
		return nil, err
	}
	return s.m.info(s.ps.prog, nil, st, halted), nil
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
	return s.networked(ctx, st, circuit.Alice, alice, func(cfg proto.Config, bits []bool) (*proto.Result, error) {
		return proto.RunGarbler(ctx, conn, cfg, bits, s.cfg.rand)
	})
}

// record is the garble-ahead pool's offline phase: it garbles this
// session's complete table stream into memory, with no peer, through
// exactly the loop a live garble uses, so serving the result later is
// byte-identical to garbling live. It garbles the registration's garbler
// input (WithGarblerInput; nil means all-zero). Cancelling ctx aborts
// between cycles.
func (s *Session) record(ctx context.Context) (*proto.Recorded, error) {
	ab, err := s.m.cpu.InputBits(circuit.Alice, s.cfg.garblerInput)
	if err != nil {
		return nil, err
	}
	tr, _, err := s.trace(ctx)
	if err != nil {
		return nil, err
	}
	cfg, err := s.protoConfig()
	if err != nil {
		return nil, err
	}
	cfg.Trace = tr
	rec, _, err := proto.RecordGarbler(ctx, cfg, ab, s.cfg.rand)
	return rec, err
}

// garbleRecorded plays Alice from a pre-garbled stream over a
// connection's OT state: the online phase is the handshake, OT and frame
// I/O, with no garbling at all. The stream must have been recorded by a
// session with the same program, public input and negotiated options (its
// session id is checked), and must never have been served before.
func (s *Session) garbleRecorded(ctx context.Context, conn io.ReadWriter, rec *proto.Recorded, st *proto.OTState) (*RunInfo, error) {
	cfg, err := s.protoConfig()
	if err != nil {
		return nil, err
	}
	cfg.OT = st
	res, err := proto.ServeRecorded(ctx, conn, cfg, rec)
	if err != nil {
		return nil, err
	}
	info := s.networkedInfo(res, 0, 0)
	info.path = pathPool
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
	return s.networked(ctx, st, circuit.Bob, bob, func(cfg proto.Config, bits []bool) (*proto.Result, error) {
		return proto.RunEvaluator(ctx, conn, cfg, bits)
	})
}

// networked is one party's side of a networked session over OT state st:
// it encodes the party's input words, draws the session's trace — so a
// program no trace fits fails with ErrTraceBudget before any frame — and
// then runs the protocol role.
func (s *Session) networked(ctx context.Context, st *proto.OTState, owner circuit.Owner, words []uint32, run func(proto.Config, []bool) (*proto.Result, error)) (*RunInfo, error) {
	start := time.Now()
	bits, err := s.m.cpu.InputBits(owner, words)
	if err != nil {
		return nil, err
	}
	tr, compile, err := s.trace(ctx)
	if err != nil {
		return nil, err
	}
	cfg, err := s.protoConfig()
	if err != nil {
		return nil, err
	}
	cfg.Trace, cfg.OT = tr, st
	prep := time.Since(start) - compile
	res, err := run(cfg, bits)
	if err != nil {
		return nil, err
	}
	return s.networkedInfo(res, prep, compile), nil
}

// networkedInfo is the RunInfo of a networked run that replayed a trace.
// Its phases are the protocol run's, plus the trace's compile (or the
// wait for it), the input encoding before the run (prep, charged to the
// kernel) and the output words' decoding here.
func (s *Session) networkedInfo(res *proto.Result, prep, compile time.Duration) *RunInfo {
	start := time.Now()
	info := s.m.info(s.ps.prog, res.Outputs, res.Stats, res.Halted)
	info.TableFrames = res.TableFrames
	info.path = pathReplay
	info.Phases = res.Phases
	info.Phases[PhaseCompile] += compile
	info.Phases[PhaseKernel] += prep
	info.Phases[PhaseDecode] += time.Since(start)
	return info
}

// protoConfig is the session's protocol configuration, its session id
// included.
func (s *Session) protoConfig() (proto.Config, error) {
	cfg := proto.Config{
		Circuit:    s.m.cpu.Circuit,
		Public:     s.ps.pub,
		Cycles:     s.cfg.maxCycles,
		StopOutput: "halted",
		Outputs:    s.cfg.outputs,
		CycleBatch: s.cfg.cycleBatch,
		Sink:       s.coreSink(),
	}
	var err error
	cfg.ID, err = s.ps.sessionID(cfg)
	return cfg, err
}

// sessionID is the protocol session digest this session would handshake
// with; Server and Client exchange it during negotiation to verify full
// program/layout/option agreement before a run starts. It is memoized per
// program state, so a registration's sessions digest it once per
// resolved option combination.
func (s *Session) sessionID() ([32]byte, error) {
	cfg, err := s.protoConfig()
	return cfg.ID, err
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
