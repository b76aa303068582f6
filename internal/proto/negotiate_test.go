package proto

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"arm2gc/internal/build"
	"arm2gc/internal/circuit"
	"arm2gc/internal/ot"
	"arm2gc/internal/sim"
	"arm2gc/internal/wire"
)

func TestProposalRoundTrip(t *testing.T) {
	cases := []Proposal{
		{Program: "sum"},
		{Program: "hamming", HasOutputs: true, Outputs: OutputEvaluatorOnly, CycleBatch: 16, MaxCycles: 12345},
		{Program: "x", HasOutputs: true, Outputs: OutputBoth},
		{Program: "sec", Auth: "bearer-1"},
		{Program: "all", HasOutputs: true, Outputs: OutputGarblerOnly, CycleBatch: 4, MaxCycles: 9, Auth: "k"},
		{Program: "epoch", Epoch: ot.Epoch{1, 2, 3, 15: 0xff}, Auth: "t"},
		{Program: "setup", Setup: true},
	}
	for _, want := range cases {
		var buf bytes.Buffer
		if err := WriteProposal(&buf, want); err != nil {
			t.Fatalf("write %+v: %v", want, err)
		}
		got, err := ReadProposal(&buf)
		if err != nil {
			t.Fatalf("read %+v: %v", want, err)
		}
		if got != want {
			t.Errorf("round trip: got %+v, want %+v", got, want)
		}
	}
	if err := WriteProposal(&bytes.Buffer{}, Proposal{}); err == nil {
		t.Error("empty program name accepted")
	}
	long := Proposal{Program: "p", Auth: strings.Repeat("a", MaxAuthToken+1)}
	if err := WriteProposal(&bytes.Buffer{}, long); err == nil {
		t.Error("over-long auth token accepted")
	}
}

// TestProposalWireCompat pins the token-less encoding: a proposal without
// a token carries no trailing auth field, its flags byte holds the two
// version bits (framed protocol, OT epoch) beside the output-mode bit,
// and the OT epoch follows the cycle budget. The same proposal in the
// layouts older builds sent — a uint32 slot where the epoch is, with or
// without the framed bit — is refused as *VersionError, with the frame
// consumed.
func TestProposalWireCompat(t *testing.T) {
	p := Proposal{Program: "add", HasOutputs: true, Outputs: OutputEvaluatorOnly,
		CycleBatch: 8, MaxCycles: 10_000, Epoch: ot.Epoch{0xe0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 0xef}}
	var buf bytes.Buffer
	if err := WriteProposal(&buf, p); err != nil {
		t.Fatal(err)
	}
	pinned := []byte{
		msgPropose, 35, 0, 0, 0, // frame header: type + length
		3, 0, 'a', 'd', 'd', // name
		0x19, byte(OutputEvaluatorOnly), // flags (OT epoch, framed, outputs), mode
		8, 0, 0, 0, // cycle batch
		0x10, 0x27, 0, 0, 0, 0, 0, 0, // max cycles
		0xe0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 0xef, // OT epoch
	}
	if !bytes.Equal(buf.Bytes(), pinned) {
		t.Fatalf("token-less proposal encodes to % x, pinned wire format is % x", buf.Bytes(), pinned)
	}
	got, err := ReadProposal(bytes.NewReader(pinned))
	if err != nil {
		t.Fatal(err)
	}
	if got != p {
		t.Fatalf("pinned bytes parsed to %+v, want %+v", got, p)
	}

	older := func(flags byte) []byte {
		return []byte{
			msgPropose, 23, 0, 0, 0,
			3, 0, 'a', 'd', 'd',
			flags, byte(OutputEvaluatorOnly),
			8, 0, 0, 0,
			0x10, 0x27, 0, 0, 0, 0, 0, 0,
			0, 0, 0, 0, // the uint32 slot that preceded the epoch
		}
	}
	for _, tc := range []struct {
		flags byte
		want  string
	}{
		{0x09, "no OT epoch"},                       // framed, before the OT epoch
		{0x01, "OT messages without frame headers"}, // before the frame format
		{0x11, "OT messages without frame headers"}, // the epoch bit alone
	} {
		r := bytes.NewReader(append(older(tc.flags), pinned...))
		_, err = ReadProposal(r)
		var ve *VersionError
		if !errors.As(err, &ve) || ve.Program != "add" || !strings.Contains(ve.Error(), "older protocol version") ||
			!strings.Contains(ve.Error(), tc.want) {
			t.Fatalf("flags %#02x: got %v, want a *VersionError naming the older protocol (%s)", tc.flags, err, tc.want)
		}
		if next, err := ReadProposal(r); err != nil || next != p {
			t.Fatalf("flags %#02x: stream misaligned after the refusal: %+v, %v", tc.flags, next, err)
		}
	}
}

// TestProposalVersionMismatch: a proposal announcing a feature bit this
// build does not implement must come back as *VersionError with the frame
// consumed, so the server can reject it and keep the connection.
func TestProposalVersionMismatch(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteProposal(&buf, Proposal{Program: "future"}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[5+2+len("future")] |= 0x80 // an unassigned flag bit
	// A second, supported proposal behind it must still be readable.
	if err := WriteProposal(&buf, Proposal{Program: "now"}); err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(buf.Bytes())
	_, err := ReadProposal(r)
	var ve *VersionError
	if !errors.As(err, &ve) {
		t.Fatalf("got %v, want *VersionError", err)
	}
	if ve.Program != "future" || ve.Flags != 0x80 {
		t.Errorf("version error carried %+v", ve)
	}
	next, err := ReadProposal(r)
	if err != nil || next.Program != "now" {
		t.Fatalf("stream misaligned after a version mismatch: %+v, %v", next, err)
	}
}

// TestProposalRemovedWorkers pins the read side of the slot that carried
// a per-cycle worker count before the OT epoch took its bytes: the exact
// bytes an older client sent to ask for 4 workers come back as
// *VersionError naming the removed knob, and the same layout asking for
// one worker — what older clients sent by default — as *VersionError
// naming the older protocol. Each frame is consumed, so the next proposal
// on the stream still parses: the connection is kept.
func TestProposalRemovedWorkers(t *testing.T) {
	proposal := func(flags, workers byte) []byte {
		return []byte{
			msgPropose, 23, 0, 0, 0, // frame header: type + length
			3, 0, 'a', 'd', 'd', // name
			flags, byte(OutputEvaluatorOnly), // flags, mode
			8, 0, 0, 0, // cycle batch
			0x10, 0x27, 0, 0, 0, 0, 0, 0, // max cycles
			workers, 0, 0, 0, // the slot that carried the worker count
		}
	}
	for _, tc := range []struct {
		flags, workers byte
		want           string
	}{
		{0x01, 4, "worker count of 4"},
		{0x09, 4, "worker count of 4"},
		{0x09, 1, "older protocol version"},
	} {
		var buf bytes.Buffer
		buf.Write(proposal(tc.flags, tc.workers))
		if err := WriteProposal(&buf, Proposal{Program: "next"}); err != nil {
			t.Fatal(err)
		}
		_, err := ReadProposal(&buf)
		var ve *VersionError
		if !errors.As(err, &ve) {
			t.Fatalf("flags %#02x, %d workers: got %v, want *VersionError", tc.flags, tc.workers, err)
		}
		if ve.Program != "add" || !strings.Contains(ve.Error(), tc.want) {
			t.Errorf("flags %#02x, %d workers: version error carried %+v (%v), want %q",
				tc.flags, tc.workers, ve, ve, tc.want)
		}
		if next, err := ReadProposal(&buf); err != nil || next.Program != "next" {
			t.Fatalf("stream misaligned after the refusal: %+v, %v", next, err)
		}
	}
}

// retiredMemBackendProposal is what a build with memory-backend pinning
// sent to pin "scan": the flags byte carries the retired 0x04 bit, and
// the length-prefixed name follows the (absent) auth field.
var retiredMemBackendProposal = []byte{
	msgPropose, 27, 0, 0, 0, // frame header: type + length
	1, 0, 'm', // name
	0x0C, 0, // flags (framed, memory backend), mode
	0, 0, 0, 0, // cycle batch
	0, 0, 0, 0, 0, 0, 0, 0, // max cycles
	0, 0, 0, 0, // reserved (the removed worker count)
	4, 0, 's', 'c', 'a', 'n', // backend name
}

// TestProposalRemovedMemBackend pins the retired memory-backend bit's
// read side: the exact bytes a backend-pinning client sent come back as
// *VersionError naming the removed knob — the verdict a server turns into
// a rejection — with the frame consumed so the next proposal on the
// stream still parses.
func TestProposalRemovedMemBackend(t *testing.T) {
	buf := bytes.NewBuffer(bytes.Clone(retiredMemBackendProposal))
	if err := WriteProposal(buf, Proposal{Program: "next"}); err != nil {
		t.Fatal(err)
	}
	_, err := ReadProposal(buf)
	var ve *VersionError
	if !errors.As(err, &ve) {
		t.Fatalf("got %v, want *VersionError", err)
	}
	if ve.Program != "m" || !strings.Contains(ve.Error(), "memory backend") || !strings.Contains(ve.Error(), "removed") {
		t.Errorf("version error carried %+v (%v)", ve, ve)
	}
	if next, err := ReadProposal(buf); err != nil || next.Program != "next" {
		t.Fatalf("stream misaligned after the refusal: %+v, %v", next, err)
	}
}

func TestGrantRoundTrip(t *testing.T) {
	want := Grant{Outputs: OutputGarblerOnly, CycleBatch: 8, MaxCycles: 10_000}
	for i := range want.SessionID {
		want.SessionID[i] = byte(i * 7)
	}
	for i := range want.Epoch {
		want.Epoch[i] = byte(0xa0 + i)
	}
	encode := func(g Grant) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := WriteGrant(&buf, g); err != nil {
			t.Fatal(err)
		}
		payload, err := readExact(&buf, msgGrant, grantLen)
		if err != nil {
			t.Fatal(err)
		}
		return payload
	}
	got, err := parseGrant(encode(want))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("round trip: got %+v, want %+v", got, want)
	}

	// A grant is only valid fully resolved: every negotiable knob >= 1,
	// and an output mode this build knows.
	unresolved := want
	unresolved.CycleBatch = 0
	if _, err := parseGrant(encode(unresolved)); err == nil {
		t.Error("grant with unresolved cycle batch accepted")
	}
	unknown := want
	unknown.Outputs = 3
	if _, err := parseGrant(encode(unknown)); err == nil || !strings.Contains(err.Error(), "unknown output mode 3") {
		t.Errorf("grant with output mode 3: got %v, want an unknown-mode error", err)
	}
}

func TestNegotiateReject(t *testing.T) {
	ca, cb := net.Pipe()
	defer ca.Close()
	defer cb.Close()
	go func() {
		prop, err := ReadProposal(cb)
		if err != nil || prop.Program != "nope" {
			t.Errorf("server read %+v, %v", prop, err)
			return
		}
		if err := WriteReject(cb, "unknown program"); err != nil {
			t.Error(err)
		}
	}()
	_, err := Negotiate(context.Background(), ca, Proposal{Program: "nope"})
	var rej *Rejected
	if !errors.As(err, &rej) {
		t.Fatalf("got %v, want *Rejected", err)
	}
	if rej.Program != "nope" || rej.Reason != "unknown program" {
		t.Errorf("rejection carried %+v", rej)
	}
}

func TestNegotiateGrant(t *testing.T) {
	ca, cb := net.Pipe()
	defer ca.Close()
	defer cb.Close()
	proposed := ot.Epoch{7, 15: 9}
	want := Grant{Outputs: OutputBoth, CycleBatch: 4, MaxCycles: 99, Epoch: proposed}
	go func() {
		if p, err := ReadProposal(cb); err != nil || p.Epoch != proposed {
			t.Errorf("server read %+v, %v", p, err)
			return
		}
		if err := WriteGrant(cb, want); err != nil {
			t.Error(err)
		}
	}()
	got, err := Negotiate(context.Background(), ca, Proposal{Program: "sum", CycleBatch: 4, MaxCycles: 99, Epoch: proposed})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("negotiated %+v, want %+v", got, want)
	}
}

// TestRejectWireCompat pins the rejection encodings. A plain rejection
// must stay byte-identical to the PR 5 format (reason text as the whole
// payload), and the Retry-After form is pinned so the extension cannot
// drift: reason, NUL, flags byte, u16 LE field length, u64 LE
// milliseconds.
func TestRejectWireCompat(t *testing.T) {
	var plain bytes.Buffer
	if err := WriteReject(&plain, "unknown program"); err != nil {
		t.Fatal(err)
	}
	legacy := append([]byte{msgReject, 15, 0, 0, 0}, "unknown program"...)
	if !bytes.Equal(plain.Bytes(), legacy) {
		t.Fatalf("plain reject encodes to % x, PR 5 wire format is % x", plain.Bytes(), legacy)
	}

	var hinted bytes.Buffer
	if err := WriteRejectRetry(&hinted, "shed", 1500*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	want := append([]byte{msgReject, 16, 0, 0, 0}, "shed"...)
	want = append(want, 0x00, flagRejectRetryAfter, 8, 0, 0xDC, 0x05, 0, 0, 0, 0, 0, 0)
	if !bytes.Equal(hinted.Bytes(), want) {
		t.Fatalf("hinted reject encodes to % x, pinned format is % x", hinted.Bytes(), want)
	}
}

// TestRejectRetryAfterRoundTrip: the hint survives negotiation as
// Rejected.RetryAfter, is clamped to MaxRetryAfter, and a reason
// containing the NUL separator is truncated rather than corrupting the
// frame.
func TestRejectRetryAfterRoundTrip(t *testing.T) {
	cases := []struct {
		reason     string
		after      time.Duration
		wantReason string
		wantAfter  time.Duration
	}{
		{"unknown program", 0, "unknown program", 0},
		{"shed: backend saturated", 2 * time.Second, "shed: backend saturated", 2 * time.Second},
		{"shed", 500 * time.Microsecond, "shed", 0}, // sub-millisecond truncates to zero
		{"shed", 48 * time.Hour, "shed", MaxRetryAfter},
		{"evil\x00tail", time.Second, "evil", time.Second},
	}
	for _, tc := range cases {
		ca, cb := net.Pipe()
		go func() {
			defer cb.Close()
			if _, err := ReadProposal(cb); err != nil {
				t.Error(err)
				return
			}
			if err := WriteRejectRetry(cb, tc.reason, tc.after); err != nil {
				t.Error(err)
			}
		}()
		_, err := Negotiate(context.Background(), ca, Proposal{Program: "p"})
		ca.Close()
		var rej *Rejected
		if !errors.As(err, &rej) {
			t.Fatalf("%q/%v: got %v, want *Rejected", tc.reason, tc.after, err)
		}
		if rej.Reason != tc.wantReason || rej.RetryAfter != tc.wantAfter {
			t.Errorf("%q/%v: carried reason %q after %v, want %q / %v",
				tc.reason, tc.after, rej.Reason, rej.RetryAfter, tc.wantReason, tc.wantAfter)
		}
	}
}

// TestRejectOldClientCompat: a pre-extension client parses the whole
// payload as the reason. It must still see a plain rejection — reason
// text with an opaque suffix, zero RetryAfter semantics — and the stream
// must stay aligned for the next round. The old parse is simulated
// byte-for-byte (string(payload), as PR 5's negotiate did).
func TestRejectOldClientCompat(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteRejectRetry(&buf, "shed", time.Second); err != nil {
		t.Fatal(err)
	}
	if err := WriteGrant(&buf, Grant{Outputs: OutputBoth, CycleBatch: 1, MaxCycles: 1}); err != nil {
		t.Fatal(err)
	}
	payload, err := wire.Read(&buf, msgReject, 0, MaxRejectBytes)
	if err != nil {
		t.Fatal(err)
	}
	oldReason := string(payload) // the PR 5 parse
	if !strings.HasPrefix(oldReason, "shed\x00") {
		t.Errorf("old parse lost the reason prefix: %q", oldReason)
	}
	// The extension is length-delimited inside the frame, so the next
	// frame is untouched.
	if _, err = readExact(&buf, msgGrant, grantLen); err != nil {
		t.Fatalf("stream misaligned after hinted reject: %v", err)
	}
}

// TestRejectMalformedExtensions: truncated or unknown-bit extensions
// degrade to a plain rejection, never an error or a misparse.
func TestRejectMalformedExtensions(t *testing.T) {
	cases := []struct {
		name    string
		payload []byte
		after   time.Duration
	}{
		{"bare separator", []byte("r\x00"), 0},
		{"flags only", []byte("r\x00\x01"), 0},
		{"short length", []byte("r\x00\x01\x08"), 0},
		{"truncated field", []byte("r\x00\x01\x08\x00\x01\x02"), 0},
		{"unknown bit skipped", append([]byte("r\x00\x03\x08\x00"),
			0xE8, 0x03, 0, 0, 0, 0, 0, 0, 0x02, 0x00, 0xAB, 0xCD), time.Second},
		{"wrong hint size", []byte("r\x00\x01\x04\x00\x01\x02\x03\x04"), 0},
		{"oversized hint refused", append([]byte("r\x00\x01\x08\x00"),
			0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F), 0},
	}
	for _, tc := range cases {
		reason, after := parseReject(tc.payload)
		if reason != "r" || after != tc.after {
			t.Errorf("%s: parsed (%q, %v), want (%q, %v)", tc.name, reason, after, "r", tc.after)
		}
	}
}

// TestProposalFramePeek covers the gateway's routing read: ProgramOfProposal
// recovers the routing key from a proposal payload, including one carrying
// future flag bits.
func TestProposalFramePeek(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteProposal(&buf, Proposal{Program: "hamming", Auth: "tok"}); err != nil {
		t.Fatal(err)
	}
	payload, err := ReadProposalFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	name, err := ProgramOfProposal(payload)
	if err != nil || name != "hamming" {
		t.Fatalf("peeked %q, %v", name, err)
	}
	// Future flag bits must not break the peek: the name precedes them.
	payload[2+len("hamming")] |= 0x80
	if name, err = ProgramOfProposal(payload); err != nil || name != "hamming" {
		t.Fatalf("peek with future flags: %q, %v", name, err)
	}
	if _, err := ProgramOfProposal([]byte{7, 0, 'x'}); err == nil {
		t.Error("truncated proposal payload accepted")
	}
}

// TestRejectReasonBounded: a reason too long for MaxRejectBytes is
// truncated on write, Retry-After hint intact, so every rejection a
// writer produces passes the client's bounded read.
func TestRejectReasonBounded(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteRejectRetry(&buf, strings.Repeat("r", 2*MaxRejectBytes), time.Second); err != nil {
		t.Fatal(err)
	}
	payload, err := wire.Read(&buf, msgReject, 0, MaxRejectBytes)
	if err != nil {
		t.Fatal(err)
	}
	reason, after := parseReject(payload)
	if len(payload) != MaxRejectBytes || after != time.Second || reason != strings.Repeat("r", MaxRejectBytes-rejectExtLen) {
		t.Errorf("payload of %d bytes parsed to a %d-byte reason, hint %v", len(payload), len(reason), after)
	}
}

// proposalAllocBound is what reading one proposal may allocate, whatever
// the stream announces: a few copies of a MaxProposalBytes payload.
const proposalAllocBound = 64 << 10

// FuzzProposal hands the two proposal decoders — ReadProposal, the
// server's read, and ProgramOfProposal, the gateway's routing peek —
// arbitrary bytes from a peer that has not been authorized. Whatever the
// bytes, neither panics and ReadProposal allocates at most
// proposalAllocBound. A proposal ReadProposal accepts re-encodes through
// WriteProposal to exactly the frame it was read from, and
// ProgramOfProposal names the same program.
func FuzzProposal(f *testing.F) {
	frame := func(p Proposal) []byte {
		var buf bytes.Buffer
		if err := WriteProposal(&buf, p); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	header := func(n uint32) []byte {
		return binary.LittleEndian.AppendUint32([]byte{msgPropose}, n)
	}
	full := frame(Proposal{Program: "all", HasOutputs: true, Outputs: OutputGarblerOnly,
		CycleBatch: 4, MaxCycles: 9, Auth: "k"})
	f.Add(frame(Proposal{Program: "sum"}))
	f.Add(full)
	f.Add(full[:len(full)/2])
	f.Add(append(header(1<<30), full[5:]...))
	f.Add(append(header(MaxProposalBytes+1), make([]byte, MaxProposalBytes+1)...))
	trailing := append(bytes.Clone(full), 0) // one byte past the last field
	trailing[1]++
	f.Add(trailing)
	f.Add(append(header(proposalFixed+2), make([]byte, proposalFixed+2)...)) // an empty program name
	f.Add(retiredMemBackendProposal)
	f.Add(frame(Proposal{Program: "epoch", Epoch: ot.Epoch{1, 15: 2}, Auth: "k"}))
	f.Add(frame(Proposal{Program: "setup", Setup: true}))
	legacy := frame(Proposal{Program: "old"})[:5+2+3+18] // the layout before the OT epoch
	legacy[1], legacy[5+2+3] = byte(len(legacy)-5), flagFramed
	f.Add(legacy)
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p, err := ReadProposal(r)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > proposalAllocBound {
			t.Errorf("reading a proposal from %d bytes allocated %d", len(data), grew)
		}
		_, _ = ProgramOfProposal(data) // must not panic on any payload
		if err != nil {
			return
		}
		read := data[:len(data)-r.Len()]
		var buf bytes.Buffer
		if err := WriteProposal(&buf, p); err != nil {
			t.Fatalf("accepted proposal %+v does not re-encode: %v", p, err)
		}
		if !bytes.Equal(buf.Bytes(), read) {
			t.Fatalf("accepted proposal %+v re-encodes to % x, read from % x", p, buf.Bytes(), read)
		}
		if name, err := ProgramOfProposal(read[5:]); err != nil || name != p.Program {
			t.Fatalf("peek named %q (%v), ReadProposal %q", name, err, p.Program)
		}
	})
}

// replyAllocBound is what one negotiation may allocate, whatever the
// server's reply announces: the proposal written, and at most a
// MaxRejectBytes rejection read.
const replyAllocBound = 64 << 10

// scriptedServer answers a negotiation with fixed bytes and swallows the
// proposal.
type scriptedServer struct{ io.Reader }

func (scriptedServer) Write(b []byte) (int, error) { return len(b), nil }

// FuzzNegotiateReply hands Negotiate arbitrary bytes as the server's reply
// to a proposal. Whatever the bytes, it never panics and allocates at most
// replyAllocBound; a grant it accepts re-encodes through WriteGrant to the
// bytes it was read from, and a rejection comes back as *Rejected.
func FuzzNegotiateReply(f *testing.F) {
	var grant, reject, hinted bytes.Buffer
	if err := WriteGrant(&grant, Grant{Outputs: OutputEvaluatorOnly, CycleBatch: 4, MaxCycles: 99}); err != nil {
		f.Fatal(err)
	}
	if err := WriteReject(&reject, "unknown program"); err != nil {
		f.Fatal(err)
	}
	if err := WriteRejectRetry(&hinted, "shed", time.Second); err != nil {
		f.Fatal(err)
	}
	f.Add(grant.Bytes())
	f.Add(reject.Bytes())
	f.Add(hinted.Bytes())
	f.Add(wire.AppendHeader(nil, msgGrant, 1<<30))
	f.Add(wire.AppendHeader(nil, msgReject, 1<<30))
	f.Add(append(wire.AppendHeader(nil, msgGrant, grantLen), make([]byte, grantLen)...))
	f.Add(wire.AppendHeader(nil, msgTables, 0))
	var epoch bytes.Buffer
	if err := WriteGrant(&epoch, Grant{Outputs: OutputBoth, CycleBatch: 1, MaxCycles: 5, Epoch: ot.Epoch{3, 15: 4}}); err != nil {
		f.Fatal(err)
	}
	f.Add(epoch.Bytes())
	f.Add(append(wire.AppendHeader(nil, msgGrant, grantLen-12), epoch.Bytes()[wire.HeaderLen:][:grantLen-12]...)) // the grant before the OT epoch
	f.Fuzz(func(t *testing.T, data []byte) {
		var g Grant
		var err error
		grew := allocated(func() {
			g, err = negotiate(scriptedServer{bytes.NewReader(data)}, Proposal{Program: "p"})
		})
		if grew > replyAllocBound {
			t.Errorf("negotiating against %d reply bytes allocated %d", len(data), grew)
		}
		var rej *Rejected
		switch {
		case err == nil:
			var buf bytes.Buffer
			if err := WriteGrant(&buf, g); err != nil {
				t.Fatal(err)
			}
			read := data[:wire.HeaderLen+grantLen]
			if !bytes.Equal(buf.Bytes(), read) {
				t.Errorf("accepted grant %+v re-encodes to % x, read % x", g, buf.Bytes(), data[:wire.HeaderLen+grantLen])
			}
		case errors.As(err, &rej):
			if h := wire.Header(data); h.Type() != msgReject || h.Len() > MaxRejectBytes {
				t.Errorf("a reply with header % x came back as a rejection", data[:wire.HeaderLen])
			}
		}
	})
}

// TestSessionIDLengthDelimited guards the digest against the
// concatenation ambiguity the unprefixed encoding had: ("x", public
// bits packing to 'y') and ("xy", no public bits) fed the hash the same
// byte stream, so two genuinely different sessions shared an id.
func TestSessionIDLengthDelimited(t *testing.T) {
	b := build.New("sid")
	a := b.Input(circuit.Alice, "a", 4)
	b.Output("o", a)
	c := b.MustCompile()

	cfg1 := Config{Circuit: c, Cycles: 1, StopOutput: "x", Public: sim.UnpackUint(uint64('y'), 8)}
	cfg2 := Config{Circuit: c, Cycles: 1, StopOutput: "xy"}
	id1, err := cfg1.SessionID()
	if err != nil {
		t.Fatal(err)
	}
	id2, err := cfg2.SessionID()
	if err != nil {
		t.Fatal(err)
	}
	if id1 == id2 {
		t.Fatal("distinct (StopOutput, Public) pairs digest to the same session id")
	}
}
