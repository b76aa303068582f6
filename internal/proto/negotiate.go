package proto

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
	"time"

	"arm2gc/internal/ot"
	"arm2gc/internal/wire"
)

// Negotiation message types: the multi-session framing layered above the
// per-run protocol. A connection carries any number of
// (propose, grant|reject, run) rounds; the evaluator proposes, the
// garbling server grants or rejects.
const (
	msgPropose = wire.Propose
	msgGrant   = wire.Grant
	msgReject  = wire.Reject
)

// Proposal flag bits. The flags byte doubles as the proposal's version
// vector: every optional field is announced by its own bit, a proposal
// carries no byte beyond the fields its bits announce, and a version bit
// a proposal lacks, or a retired one it sets, turns into *VersionError — a
// parseable verdict the server can turn into a rejection instead of a
// dead connection. All eight bits are assigned.
const (
	flagHasOutputs byte = 1 << 0
	flagHasAuth    byte = 1 << 1

	// flagRetiredMemoryBackend announced a memory-backend name until backend
	// pinning was removed: every session now takes the auto rule, which
	// both parties derive from the layout. No writer sets it; ReadProposal
	// refuses it with a *VersionError that says why.
	flagRetiredMemoryBackend byte = 1 << 2

	// flagFramed is the protocol version: the proposer speaks the one
	// frame format — OT messages as typed frames, and a terminal frame in
	// each direction of every session. Every writer sets it and
	// ReadProposal requires it, so a peer on the older protocol fails at
	// negotiation, before any cryptography, with a readable rejection.
	flagFramed byte = 1 << 3

	// flagOTEpoch is the protocol version after it: the 16 bytes after the
	// cycle budget carry the OT epoch the proposer holds (in place of the
	// uint32 slot that carried a worker count), and the grant names the
	// epoch the session uses. Every writer sets it and ReadProposal
	// requires it; a proposal without it is in the older layout, which
	// ReadProposal still parses far enough to refuse with a reason.
	flagOTEpoch byte = 1 << 4

	// flagOTSetup asks for an OT set-up instead of a session: the grant
	// names a fresh epoch and both parties run only the base OTs under it
	// (see SetupOT).
	flagOTSetup byte = 1 << 5

	// flagOpeningFlight is the protocol version after flagOTEpoch: the
	// garbler's opening flight carries the hello and Alice's labels, and
	// the evaluator's hello echo leaves with its first OT message. Each
	// party reads before it writes where the older order wrote first, so a
	// pair of mixed versions would wait for each other: every writer sets
	// the bit and ReadProposal requires it, refusing a proposal without it
	// with a reason.
	flagOpeningFlight byte = 1 << 6

	// flagCrossCycle is the protocol version after flagOpeningFlight: the
	// table stream is that of a trace the cross-cycle liveness pass pruned
	// (core.Compile), without the tables whose labels die before anything
	// reads them. A replaying peer from before the pass would expect them,
	// so every writer sets the bit and ReadProposal requires it, refusing
	// a proposal without it with a reason before any cryptography. It is
	// the flags byte's last free bit: a later version needs a new field.
	flagCrossCycle byte = 1 << 7
)

// Negotiation bounds; proposals outside them are refused before any
// session state is touched.
const (
	// MaxProgramName bounds a proposed program name, in bytes.
	MaxProgramName = 1024

	// MaxAuthToken bounds a proposal's bearer token, in bytes.
	MaxAuthToken = 4096

	// MaxProposalBytes is the largest well-formed proposal payload: the
	// name, the proposalFixed bytes of options and epoch, and the auth
	// field at its bound. A proposal arrives before any authorization, so
	// a longer announced length is refused before anything is allocated
	// for it.
	MaxProposalBytes = 2 + MaxProgramName + proposalFixed + 2 + MaxAuthToken

	// MaxCycleBatch is the largest cycle batch a client may propose. The
	// garbler buffers a whole batch of tables before flushing, and the
	// evaluator accepts a table frame of up to one table per non-XOR gate
	// per cycle of the batch, so the bound caps how much memory one remote
	// proposal can pin per session. Server registrations are operator-set
	// and not subject to it.
	MaxCycleBatch = 4096

	// MaxRejectBytes bounds a rejection payload: the reason text,
	// truncated on write to fit, and its Retry-After extension. A client
	// refuses a longer rejection from its header.
	MaxRejectBytes = 4096
)

// epochLen is the size of an ot.Epoch on the wire.
const epochLen = 16

var _ [epochLen]byte = ot.Epoch{} // fails to compile if the two sizes part

// proposalFixed is the fixed part of a proposal after the name: flags,
// output mode, cycle batch, cycle budget and OT epoch.
const proposalFixed = 1 + 1 + 4 + 8 + epochLen

// grantLen is a grant's exact payload length: the output mode, the cycle
// batch, the cycle budget, the OT epoch and the session id.
const grantLen = 1 + 4 + 8 + epochLen + 32

// Proposal is the evaluator's opening move of a session: a program name
// the server registered, plus the options it wants. Zero-valued option
// fields (and HasOutputs == false) mean "use the server's registered
// default"; the resolved values come back in the Grant.
type Proposal struct {
	Program string

	// HasOutputs distinguishes "propose OutputBoth" (true, Outputs = 0)
	// from "accept the server's registered mode" (false).
	HasOutputs bool
	Outputs    OutputMode

	CycleBatch int // 0: the server's registered default
	MaxCycles  int // 0: the server's registered default

	// Auth optionally carries a bearer token the server checks against
	// the proposed program's registration policy. An empty token adds no
	// byte to the proposal.
	Auth string

	// Epoch is the OT epoch the proposer holds for this program on this
	// connection (see OTState), zero when it holds none.
	Epoch ot.Epoch

	// Setup makes the proposal an OT set-up (see SetupOT): no session
	// runs, and Epoch is ignored.
	Setup bool
}

// VersionError reports a proposal in a version this side does not speak:
// an older protocol version, or a layout or option only older builds
// honoured; Reason says which. The frame is length-delimited, so the
// stream stays aligned: a server receiving one rejects the proposal and
// keeps the connection for further (supported) sessions.
type VersionError struct {
	Program string
	Reason  string
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("proto: proposal %q: %s", e.Program, e.Reason)
}

// Grant is the server's acceptance: the fully resolved session options
// and the session id the server computed from them, which the client
// cross-checks against its own before running (catching program-binary or
// layout disagreement with a clear error instead of a mid-handshake
// abort).
//
// Epoch names the OT epoch the session uses: an echo of the proposal's
// means both parties extend the epoch they hold; any other id means both
// run the base OTs now and hold the result under it.
type Grant struct {
	Outputs    OutputMode
	CycleBatch int
	MaxCycles  int
	Epoch      ot.Epoch
	SessionID  [32]byte
}

// Rejected is the error a proposal comes back with when the server
// declines it: unknown program, an option the registration does not
// offer, an over-budget cycle count — or, from a fleet gateway, load
// shedding, in which case RetryAfter carries the peer's hint.
type Rejected struct {
	Program string
	Reason  string

	// RetryAfter is the rejecting peer's Retry-After hint: how long the
	// proposer should back off before proposing again. Zero on plain
	// policy rejections (retrying those is pointless); positive on load
	// sheds, where the condition is transient.
	RetryAfter time.Duration
}

func (e *Rejected) Error() string {
	return fmt.Sprintf("proto: proposal %q rejected: %s", e.Program, e.Reason)
}

// WriteProposal sends a session proposal (client side).
func WriteProposal(w io.Writer, p Proposal) error {
	if p.Program == "" {
		return fmt.Errorf("proto: proposal without a program name")
	}
	if len(p.Program) > MaxProgramName {
		return fmt.Errorf("proto: program name of %d bytes exceeds %d", len(p.Program), MaxProgramName)
	}
	if p.CycleBatch < 0 || p.MaxCycles < 0 {
		return fmt.Errorf("proto: negative option in proposal")
	}
	if len(p.Auth) > MaxAuthToken {
		return fmt.Errorf("proto: auth token of %d bytes exceeds %d", len(p.Auth), MaxAuthToken)
	}
	payload := make([]byte, 0, 2+len(p.Program)+proposalFixed+2+len(p.Auth))
	payload = binary.LittleEndian.AppendUint16(payload, uint16(len(p.Program)))
	payload = append(payload, p.Program...)
	flags := flagFramed | flagOTEpoch | flagOpeningFlight | flagCrossCycle
	if p.HasOutputs {
		flags |= flagHasOutputs
	}
	if p.Auth != "" {
		flags |= flagHasAuth
	}
	if p.Setup {
		flags |= flagOTSetup
	}
	payload = append(payload, flags, byte(p.Outputs))
	payload = binary.LittleEndian.AppendUint32(payload, uint32(p.CycleBatch))
	payload = binary.LittleEndian.AppendUint64(payload, uint64(p.MaxCycles))
	payload = append(payload, p.Epoch[:]...)
	if p.Auth != "" {
		payload = binary.LittleEndian.AppendUint16(payload, uint16(len(p.Auth)))
		payload = append(payload, p.Auth...)
	}
	return wire.Write(w, msgPropose, payload)
}

// ReadProposalFrame reads the next frame as an unparsed proposal payload —
// the read a relay routes on. A frame of another type, or one announcing
// more than MaxProposalBytes, is refused from its header alone.
func ReadProposalFrame(r io.Reader) ([]byte, error) {
	return wire.Read(r, msgPropose, 0, MaxProposalBytes)
}

// ProgramOfProposal extracts the proposed program name from a proposal
// payload without validating the rest — the routing key a gateway shards
// on. The flags do not matter here; the name field precedes the flags
// byte and its encoding is fixed.
func ProgramOfProposal(payload []byte) (string, error) {
	if len(payload) < 2 {
		return "", fmt.Errorf("proto: short proposal payload")
	}
	n := int(binary.LittleEndian.Uint16(payload))
	if n == 0 || n > MaxProgramName || len(payload) < 2+n {
		return "", fmt.Errorf("proto: malformed proposal payload")
	}
	return string(payload[2 : 2+n]), nil
}

// ReadProposal reads the next session proposal (server side). io.EOF
// means the client finished with the connection cleanly. A proposal in an
// older protocol version — without flagCrossCycle, flagOpeningFlight,
// flagOTEpoch or flagFramed, or with the retired memory-backend bit —
// comes back as *VersionError with the program name filled in; the frame
// has been fully consumed, so the caller may reject it and keep reading.
func ReadProposal(r io.Reader) (Proposal, error) {
	b, err := ReadProposalFrame(r)
	if err != nil {
		return Proposal{}, err
	}
	var p Proposal
	if len(b) < 2 {
		return p, fmt.Errorf("proto: short proposal")
	}
	n := int(binary.LittleEndian.Uint16(b))
	b = b[2:]
	if n == 0 || n > MaxProgramName || len(b) < n+1 {
		return p, fmt.Errorf("proto: malformed proposal")
	}
	p.Program = string(b[:n])
	b = b[n:]
	flags := b[0]
	if flags&flagRetiredMemoryBackend != 0 {
		return p, &VersionError{Program: p.Program, Reason: "a memory backend was proposed, but backend " +
			"pinning has been removed (every session picks its backend from the layout); propose without it"}
	}
	if flags&flagOTEpoch == 0 || flags&flagFramed == 0 {
		return p, olderProposal(p.Program, flags, b)
	}
	if flags&flagOpeningFlight == 0 {
		return p, &VersionError{Program: p.Program, Reason: "the proposal speaks an older protocol version " +
			"(the garbler's labels after the hello echo); upgrade the client"}
	}
	if flags&flagCrossCycle == 0 {
		return p, &VersionError{Program: p.Program, Reason: "the proposal speaks an older protocol version " +
			"(tables of labels that die before any read, before cross-cycle SkipGate); upgrade the client"}
	}
	if len(b) < proposalFixed {
		return p, fmt.Errorf("proto: malformed proposal")
	}
	p.HasOutputs = flags&flagHasOutputs != 0
	p.Setup = flags&flagOTSetup != 0
	p.Outputs = OutputMode(b[1])
	p.CycleBatch = int(binary.LittleEndian.Uint32(b[2:]))
	p.MaxCycles = int(binary.LittleEndian.Uint64(b[6:]))
	if p.CycleBatch < 0 || p.MaxCycles < 0 {
		return p, fmt.Errorf("proto: proposal option overflow")
	}
	copy(p.Epoch[:], b[14:])
	b = b[proposalFixed:]
	if flags&flagHasAuth != 0 {
		if len(b) < 2 {
			return p, fmt.Errorf("proto: malformed proposal auth")
		}
		an := int(binary.LittleEndian.Uint16(b))
		b = b[2:]
		if an == 0 || an > MaxAuthToken || len(b) < an {
			return p, fmt.Errorf("proto: malformed proposal auth")
		}
		p.Auth = string(b[:an])
		b = b[an:]
	}
	if len(b) != 0 {
		return p, fmt.Errorf("proto: %d bytes after the proposal's last field", len(b))
	}
	return p, nil
}

// olderProposal is the verdict on a proposal in an older protocol version,
// whose fixed options b (from the flags byte on) end in a uint32 slot that
// once carried a per-cycle worker count. It names the removed knob when
// the slot asks for one, and the missing version otherwise.
func olderProposal(program string, flags byte, b []byte) *VersionError {
	if len(b) >= 18 {
		if w := binary.LittleEndian.Uint32(b[14:]); w > 1 {
			return &VersionError{Program: program, Reason: fmt.Sprintf(
				"a worker count of %d was proposed, but per-cycle workers have been removed; upgrade the client", w)}
		}
	}
	if flags&flagFramed == 0 {
		return &VersionError{Program: program, Reason: "the proposal speaks an older protocol version " +
			"(OT messages without frame headers); upgrade the client"}
	}
	return &VersionError{Program: program, Reason: "the proposal speaks an older protocol version " +
		"(base OTs in every session, no OT epoch); upgrade the client"}
}

// WriteGrant accepts a proposal (server side).
func WriteGrant(w io.Writer, g Grant) error {
	payload := make([]byte, 0, grantLen)
	payload = append(payload, byte(g.Outputs))
	payload = binary.LittleEndian.AppendUint32(payload, uint32(g.CycleBatch))
	payload = binary.LittleEndian.AppendUint64(payload, uint64(g.MaxCycles))
	payload = append(payload, g.Epoch[:]...)
	payload = append(payload, g.SessionID[:]...)
	return wire.Write(w, msgGrant, payload)
}

func parseGrant(b []byte) (Grant, error) {
	var g Grant
	if len(b) != grantLen {
		return g, fmt.Errorf("proto: malformed grant of %d bytes", len(b))
	}
	g.Outputs = OutputMode(b[0])
	switch g.Outputs {
	case OutputBoth, OutputGarblerOnly, OutputEvaluatorOnly:
	default:
		return g, fmt.Errorf("proto: grant with unknown output mode %d", g.Outputs)
	}
	g.CycleBatch = int(binary.LittleEndian.Uint32(b[1:]))
	g.MaxCycles = int(binary.LittleEndian.Uint64(b[5:]))
	copy(g.Epoch[:], b[13:])
	copy(g.SessionID[:], b[13+epochLen:])
	if g.CycleBatch < 1 || g.MaxCycles < 1 {
		return g, fmt.Errorf("proto: grant with unresolved options")
	}
	return g, nil
}

// Rejection-frame extension. The PR 5 wire format carries the reason
// text as the whole payload, so — unlike the proposal — there is no flags
// byte to grow behind. The extension therefore rides after a NUL
// separator: reasons are human-readable text that never contains NUL
// (WriteReject strips one defensively), so
//
//	payload := reason                                  (no extension)
//	payload := reason 0x00 flags [field...]            (extended)
//
// is unambiguous. Each extension field is announced by its own flag bit
// and length-prefixed, mirroring the proposal's Auth field: a reader
// skips fields it has no bit for, and the absent extension is
// byte-identical to the PR 5 format (pinned by a golden-bytes test). A
// pre-extension client parses the whole payload as the reason — it still
// sees a plain rejection (typed error, connection kept) whose text
// merely carries a short opaque suffix.
const rejectExtSep byte = 0x00

const (
	flagRejectRetryAfter byte = 1 << iota
)

// MaxRetryAfter bounds a rejection's Retry-After hint; anything longer
// is clamped on write and refused on read (a shed is a transient verdict,
// not a multi-day ban).
const MaxRetryAfter = time.Hour

// NotAvailable is the one rejection reason for a program a peer may not
// run: unknown to a server, behind a failed token check, or unlisted or
// retired at a gateway. Every such case reads the same, so comparing
// rejection texts cannot enumerate a catalog.
func NotAvailable(program string) string {
	return fmt.Sprintf("program %q is not available to this peer", program)
}

// TraceTooLarge is the rejection reason for a program whose
// classification trace alone outgrows the server's trace budget: none of
// its sessions can run there, so the proposal is refused before the grant.
func TraceTooLarge(program string) string {
	return fmt.Sprintf("program %q: its classification trace outgrows this server's trace budget", program)
}

// WriteReject declines a proposal with a reason (server side); the
// connection stays usable for further proposals.
func WriteReject(w io.Writer, reason string) error {
	return WriteRejectRetry(w, reason, 0)
}

// rejectExtLen is the Retry-After extension's size: separator, flags,
// field length, milliseconds.
const rejectExtLen = 1 + 1 + 2 + 8

// WriteRejectRetry declines a proposal with a reason and, when after is
// positive, a Retry-After hint telling the peer how long to back off
// before proposing again — the load-shedding verdict of a fleet gateway.
// With after <= 0 the frame is byte-identical to WriteReject's. A reason
// too long for MaxRejectBytes is truncated.
func WriteRejectRetry(w io.Writer, reason string, after time.Duration) error {
	if i := strings.IndexByte(reason, rejectExtSep); i >= 0 {
		reason = reason[:i] // NUL is the extension separator; reasons are text
	}
	if len(reason) > MaxRejectBytes-rejectExtLen {
		reason = reason[:MaxRejectBytes-rejectExtLen]
	}
	payload := []byte(reason)
	if after > 0 {
		if after > MaxRetryAfter {
			after = MaxRetryAfter
		}
		payload = append(payload, rejectExtSep, flagRejectRetryAfter, 8, 0)
		payload = binary.LittleEndian.AppendUint64(payload, uint64(after/time.Millisecond))
	}
	return wire.Write(w, msgReject, payload)
}

// parseReject decodes a rejection payload into its reason and optional
// Retry-After hint. Unknown flag bits and malformed extensions degrade to
// a plain rejection with the parsed reason — a rejection is already the
// failure path; there is nothing safer to fall back to.
func parseReject(payload []byte) (reason string, after time.Duration) {
	i := bytes.IndexByte(payload, rejectExtSep)
	if i < 0 {
		return string(payload), 0
	}
	reason, b := string(payload[:i]), payload[i+1:]
	if len(b) < 1 {
		return reason, 0
	}
	flags := b[0]
	b = b[1:]
	for bit := byte(1); bit != 0; bit <<= 1 {
		if flags&bit == 0 {
			continue
		}
		if len(b) < 2 {
			return reason, after
		}
		n := int(binary.LittleEndian.Uint16(b))
		b = b[2:]
		if len(b) < n {
			return reason, after
		}
		field := b[:n]
		b = b[n:]
		if bit == flagRejectRetryAfter && n == 8 {
			ms := binary.LittleEndian.Uint64(field)
			if d := time.Duration(ms) * time.Millisecond; d > 0 && d <= MaxRetryAfter {
				after = d
			}
		}
	}
	return reason, after
}

// Negotiate proposes a session and waits for the server's verdict (client
// side). A declined proposal returns *Rejected; cancelling ctx unblocks
// in-flight negotiation I/O as in RunGarbler/RunEvaluator.
func Negotiate(ctx context.Context, conn io.ReadWriter, p Proposal) (Grant, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	stop := watchContext(ctx, conn)
	defer stop()
	g, err := negotiate(conn, p)
	return g, abortErr(ctx, err)
}

func negotiate(conn io.ReadWriter, p Proposal) (Grant, error) {
	if err := WriteProposal(conn, p); err != nil {
		return Grant{}, err
	}
	h, err := wire.ReadHeader(conn)
	if err != nil {
		return Grant{}, err
	}
	if h.Type() == msgReject {
		payload, err := h.Payload(conn, msgReject, 0, MaxRejectBytes)
		if err != nil {
			return Grant{}, err
		}
		reason, after := parseReject(payload)
		return Grant{}, &Rejected{Program: p.Program, Reason: reason, RetryAfter: after}
	}
	payload, err := h.Payload(conn, msgGrant, grantLen, grantLen)
	if err != nil {
		return Grant{}, err
	}
	return parseGrant(payload)
}

// String renders an output mode for negotiation-rejection messages.
func (m OutputMode) String() string {
	switch m {
	case OutputBoth:
		return "both"
	case OutputGarblerOnly:
		return "garbler-only"
	case OutputEvaluatorOnly:
		return "evaluator-only"
	}
	return fmt.Sprintf("OutputMode(%d)", uint8(m))
}
