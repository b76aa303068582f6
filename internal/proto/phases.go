package proto

import (
	"io"
	"time"
)

// Phase names one stretch of a party's session wall time (see Phases).
type Phase uint8

// The phases of a session, in the order a session usually passes them.
const (
	PhaseNegotiate   Phase = iota // proposal, grant and the session's set-up
	PhaseOTSetup                  // the 128 base OTs, when the session runs them
	PhaseOTExtension              // the OT extension for Bob's input labels
	PhaseCompile                  // compiling the trace, or waiting for its compile
	PhaseKernel                   // garbling or evaluating: labels, the cycle kernels, framing
	PhaseWrite                    // inside the connection's Write calls
	PhaseReadWait                 // inside the connection's Read calls, waiting for the peer
	PhaseDecode                   // the output exchange's compute
	NumPhases
)

var phaseNames = [NumPhases]string{"negotiate", "ot_setup", "ot_extension", "compile",
	"kernel", "write", "read_wait", "decode"}

// String returns the phase's metric label, e.g. "read_wait".
func (p Phase) String() string {
	if p < NumPhases {
		return phaseNames[p]
	}
	return "unknown"
}

// Phases is one party's session wall time split by phase. Write and
// ReadWait are the time spent inside the connection's Write and Read
// calls, whatever the session was doing; every other phase is compute
// between them. The clock is read only where the phase changes and
// around each connection call — a few readings per flight — so a
// session's flip-flop commits, a few label moves per cycle and cheaper
// than the readings that would time them, count in Kernel. The phases of one
// party sum to its wall time from proposal to last frame, less the
// caller's own bookkeeping around the protocol run.
type Phases [NumPhases]time.Duration

// Total returns the sum of the phases.
func (p *Phases) Total() time.Duration {
	var t time.Duration
	for _, d := range p {
		t += d
	}
	return t
}

// clock charges a party's wall time to phases: each reading charges the
// time since the previous one to the phase under way, so the phases sum
// exactly to the time between the first reading and the last. A nil clock
// (a run with no peer, RecordGarbler) reads nothing.
type clock struct {
	ph    Phases
	start time.Time     // the first reading
	last  time.Duration // the last reading, as the monotonic time since start
	cur   Phase
}

func newClock() *clock {
	//lint:ignore determinism phase timing is reported, never sent: no wire byte depends on it
	return &clock{start: time.Now(), cur: PhaseKernel}
}

// enter charges the time since the last reading to the phase under way
// and makes p the phase under way. A reading is the monotonic clock alone
// (time.Since), half the cost of time.Now.
func (c *clock) enter(p Phase) {
	if c == nil {
		return
	}
	//lint:ignore determinism phase timing is reported, never sent: no wire byte depends on it
	now := time.Since(c.start)
	c.ph[c.cur] += now - c.last
	c.last, c.cur = now, p
}

// phase returns the phase under way.
func (c *clock) phase() Phase {
	if c == nil {
		return PhaseKernel
	}
	return c.cur
}

// timedConn charges the time inside conn's Read and Write calls to
// PhaseReadWait and PhaseWrite. It sits under the session's flight, so it
// times the connection calls the flight makes, not each frame.
type timedConn struct {
	conn io.ReadWriter
	clk  *clock
}

func (t timedConn) Read(b []byte) (int, error) {
	was := t.clk.phase()
	t.clk.enter(PhaseReadWait)
	n, err := t.conn.Read(b)
	t.clk.enter(was)
	return n, err
}

func (t timedConn) Write(b []byte) (int, error) {
	was := t.clk.phase()
	t.clk.enter(PhaseWrite)
	n, err := t.conn.Write(b)
	t.clk.enter(was)
	return n, err
}
