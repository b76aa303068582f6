package gateway

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"arm2gc/internal/proto"
	"arm2gc/internal/wire"
)

// relayRun is what one proxyConn did between two scripted peers.
type relayRun struct {
	err       error    // what run returned, as handle would see it
	toClient  [32]byte // digest of every byte the client received
	toBackend [32]byte // digest of every byte the backend received
	allocated uint64   // heap bytes allocated while the connection ran
}

// runRelay drives one proxyConn exactly as handle does, between scripted
// peers: the backend sends backendIn and hangs up; the client sends
// clientIn and hangs up, except that with stall < len(clientIn) it sends
// clientIn[:stall], waits until every byte of backendIn has reached it (or
// the gateway hung up on it) — as a real client sends its outputs frame
// only after the decode frame — and then sends the rest. Everything the gateway forwards to
// either side is drained into a digest. It fails the test if the
// connection does not come to an end.
func runRelay(tb testing.TB, clientIn, backendIn []byte, stall int) relayRun {
	tb.Helper()
	const addr = "127.0.0.1:1"
	g, err := New(Config{Backends: []string{addr}})
	if err != nil {
		tb.Fatal(err)
	}
	var run relayRun
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)

	client, clientPeer := net.Pipe()
	backend, backendPeer := net.Pipe()
	toClient, toBackend := sha256.New(), sha256.New()
	received := make(chan struct{}) // closed once backendIn has reached the client, or the gateway hung up on it
	drained := make(chan struct{}, 2)
	go func() {
		n, buf := 0, make([]byte, 32<<10)
		var err error
		for err == nil && n < len(backendIn) {
			var k int
			k, err = clientPeer.Read(buf)
			toClient.Write(buf[:k])
			n += k
		}
		close(received)
		_, _ = io.Copy(toClient, clientPeer)
		drained <- struct{}{}
	}()
	go func() {
		_, _ = io.Copy(toBackend, backendPeer)
		drained <- struct{}{}
	}()

	clientSide := io.Reader(bytes.NewReader(clientIn))
	if stall < len(clientIn) {
		clientSide = io.MultiReader(bytes.NewReader(clientIn[:stall]), waitReader{received}, bytes.NewReader(clientIn[stall:]))
	}
	p := &proxyConn{
		g:        g,
		client:   client,
		cr:       bufio.NewReader(clientSide),
		links:    make(map[string]*backendLink),
		toClient: sink{w: client, client: true},
	}
	p.links[addr] = &backendLink{
		b:         g.backends[addr],
		nc:        backend,
		br:        bufio.NewReader(bytes.NewReader(backendIn)),
		toBackend: sink{w: backend},
	}
	done := make(chan error, 1)
	go func() { done <- p.run(context.Background()) }()
	select {
	case run.err = <-done:
	case <-time.After(10 * time.Second):
		tb.Fatal("the relay never returned")
	}
	p.close()
	<-drained
	<-drained

	runtime.ReadMemStats(&after)
	run.allocated = after.TotalAlloc - before.TotalAlloc
	toClient.Sum(run.toClient[:0])
	toBackend.Sum(run.toBackend[:0])
	return run
}

// waitReader is an empty stream that ends once ch is closed.
type waitReader struct{ ch chan struct{} }

func (w waitReader) Read([]byte) (int, error) {
	<-w.ch
	return 0, io.EOF
}

// sessionStreams scripts one granted session from both sides, for a
// one-bit input each: the client's proposal, hello, OT frames and outputs,
// and the backend's grant, hello, label, OT frames, tableBytes of garbled
// tables in frames of at most frameBytes, and decode frame. The client's
// outputs frame is its last outputsLen bytes.
func sessionStreams(tb testing.TB, tableBytes, frameBytes int) (client, backend []byte) {
	tb.Helper()
	var c, b bytes.Buffer
	write := func(buf *bytes.Buffer, typ byte, n int) {
		if err := wire.Write(buf, typ, make([]byte, n)); err != nil {
			tb.Fatal(err)
		}
	}
	if err := proto.WriteProposal(&c, proto.Proposal{Program: "matmul"}); err != nil {
		tb.Fatal(err)
	}
	write(&c, wire.Hello, 32)
	write(&c, wire.OT, 65)
	write(&c, wire.OT, 128)
	write(&c, wire.Outputs, outputsLen-wire.HeaderLen)

	if err := proto.WriteGrant(&b, proto.Grant{Outputs: proto.OutputBoth, CycleBatch: 1, MaxCycles: 1}); err != nil {
		tb.Fatal(err)
	}
	write(&b, wire.Hello, 48)
	write(&b, wire.AliceLabels, 16)
	write(&b, wire.OT, 65)
	write(&b, wire.OT, 32)
	for left := tableBytes; left > 0; left -= frameBytes {
		write(&b, wire.Tables, min(left, frameBytes))
	}
	write(&b, wire.Decode, 4)
	return c.Bytes(), b.Bytes()
}

const outputsLen = wire.HeaderLen + 4

// TestGatewayRelayAllocation is the relay's memory contract: one relayed
// session allocates the same small constant whatever its frames announce —
// a tables.matmul5-sized stream (≈ 4.1 MB) in one frame, in table frames
// of one cycle's size, or a stream a hundred times shorter — and every
// byte crosses unaltered.
func TestGatewayRelayAllocation(t *testing.T) {
	const bound = 256 << 10
	for _, tc := range []struct {
		name              string
		tables, frameSize int
	}{
		{"short stream", 41 << 10, 41 << 10},
		{"one 4.1 MB frame", 4_100_000, 4_100_000},
		{"4.1 MB in 4 KB frames", 4_100_000, 4 << 10},
	} {
		client, backend := sessionStreams(t, tc.tables, tc.frameSize)
		run := runRelay(t, client, backend, len(client)-outputsLen)
		if run.err != io.EOF {
			t.Errorf("%s: the connection ended with %v, want the client's clean EOF", tc.name, run.err)
		}
		if run.toClient != sha256.Sum256(backend) || run.toBackend != sha256.Sum256(client) {
			t.Errorf("%s: relayed bytes differ from what the peers sent", tc.name)
		}
		if run.allocated > bound {
			t.Errorf("%s: the relay allocated %d bytes, want at most %d", tc.name, run.allocated, bound)
		}
	}
}

// TestGatewayRelayRejectsDisallowedFrame: a frame of a type its direction
// never carries — here garbled tables from the client — closes the
// connection before any of it reaches the backend.
func TestGatewayRelayRejectsDisallowedFrame(t *testing.T) {
	client, backend := sessionStreams(t, 4<<10, 4<<10)
	proposal, err := proto.ReadProposalFrame(bytes.NewReader(client))
	if err != nil {
		t.Fatal(err)
	}
	forwarded := wire.AppendHeader(nil, wire.Propose, len(proposal))
	forwarded = append(forwarded, proposal...)
	hostile := append(bytes.Clone(forwarded), wire.AppendHeader(nil, wire.Tables, 32)...)
	hostile = append(hostile, make([]byte, 32)...)

	run := runRelay(t, hostile, backend, len(hostile))
	if run.err == nil || !strings.Contains(run.err.Error(), "frame type 0x03 not allowed") {
		t.Fatalf("got %v, want the connection closed on a disallowed frame", run.err)
	}
	if run.toBackend != sha256.Sum256(forwarded) {
		t.Error("the backend received bytes of the disallowed frame")
	}
}

// FuzzGatewayRelay runs one proxyConn between arbitrary client and backend
// byte streams. Whatever the bytes, the connection comes to an end without
// a panic, and the relay allocates at most a constant plus a small multiple
// of the bytes the client actually delivered — never anything a header
// announced.
func FuzzGatewayRelay(f *testing.F) {
	client, backend := sessionStreams(f, 1<<10, 256)
	f.Add(client, backend)
	f.Add(client[:len(client)/2], backend)
	f.Add(client, backend[:len(backend)/2])
	grant := backend[:wire.HeaderLen+49]
	f.Add(client, append(bytes.Clone(grant), wire.AppendHeader(nil, wire.Tables, 1<<30)...))
	f.Add(append(bytes.Clone(client[:len(client)-outputsLen]), wire.AppendHeader(nil, wire.Outputs, 1<<30)...), backend)
	var reject bytes.Buffer
	if err := proto.WriteReject(&reject, "no"); err != nil {
		f.Fatal(err)
	}
	f.Add(client, bytes.Repeat(reject.Bytes(), 3)) // verdicts nobody asked for
	f.Fuzz(func(t *testing.T, client, backend []byte) {
		run := runRelay(t, client, backend, len(client))
		if bound := uint64(256<<10 + 8*len(client)); run.allocated > bound {
			t.Errorf("relaying %d client and %d backend bytes allocated %d, want at most %d",
				len(client), len(backend), run.allocated, bound)
		}
	})
}
