package arm2gc

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"arm2gc/internal/proto"
)

// declineSetup plays a peer that runs no OT set-up: it reads the set-up
// proposal Client.Register sends and rejects it, which leaves the Client
// to run the base OTs in its sessions.
func declineSetup(conn net.Conn) error {
	prop, err := proto.ReadProposal(conn)
	if err != nil {
		return err
	}
	if !prop.Setup {
		return fmt.Errorf("first proposal is not an OT set-up: %+v", prop)
	}
	return proto.WriteReject(conn, "no OT set-up here")
}

// shedPeer plays the rejecting end of a Client connection over net.Pipe:
// it declines the OT set-up, then for each session proposal it reads, it
// answers from the scripted verdicts (positive duration: shed with that
// Retry-After; zero: plain reject), counting proposals as it goes.
func shedPeer(t *testing.T, conn net.Conn, verdicts []time.Duration, proposals *atomic.Int64) {
	t.Helper()
	go func() {
		if err := declineSetup(conn); err != nil {
			t.Error(err)
			return
		}
		for _, after := range verdicts {
			if _, err := proto.ReadProposal(conn); err != nil {
				return // client gave up early; the test asserts the count
			}
			proposals.Add(1)
			var err error
			if after > 0 {
				err = proto.WriteRejectRetry(conn, "shed: saturated", after)
			} else {
				err = proto.WriteReject(conn, "unknown program")
			}
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()
}

// TestClientRetryableError: a hinted rejection surfaces as
// *RetryableError carrying the hint, errors.As still finds the wrapped
// *RejectedError, and the connection survives — a later Evaluate reaches
// the peer again.
func TestClientRetryableError(t *testing.T) {
	ca, cb := net.Pipe()
	defer ca.Close()
	defer cb.Close()
	var proposals atomic.Int64
	shedPeer(t, cb, []time.Duration{2 * time.Second, 0}, &proposals)

	c := NewClient(ca)
	if err := c.Register("add", compileAdd(t)); err != nil {
		t.Fatal(err)
	}
	_, err := c.Evaluate(context.Background(), "add", []uint32{1})
	var retry *RetryableError
	if !errors.As(err, &retry) {
		t.Fatalf("got %v, want *RetryableError", err)
	}
	if retry.After != 2*time.Second {
		t.Errorf("After = %v, want 2s", retry.After)
	}
	var rej *RejectedError
	if !errors.As(err, &rej) || rej.RetryAfter != 2*time.Second {
		t.Fatalf("wrapped rejection not reachable: %v", err)
	}

	// The shed did not break the client: the next call proposes again
	// and gets the scripted plain rejection, not a broken-connection
	// error.
	_, err = c.Evaluate(context.Background(), "add", []uint32{1})
	if !errors.As(err, &rej) {
		t.Fatalf("post-shed evaluate: got %v, want *RejectedError", err)
	}
	if errors.As(err, &retry) {
		t.Error("plain rejection surfaced as retryable")
	}
	if n := proposals.Load(); n != 2 {
		t.Errorf("peer saw %d proposals, want 2", n)
	}
}

// TestClientWithRetry: WithRetry(n) re-proposes hinted sheds with
// backoff — the peer sees n+1 proposals before the typed error comes
// back — while a plain rejection stops the loop immediately.
func TestClientWithRetry(t *testing.T) {
	ca, cb := net.Pipe()
	defer ca.Close()
	defer cb.Close()
	var proposals atomic.Int64
	// Three hinted sheds (tiny hints keep the backoff microscopic),
	// then a plain rejection for the second Evaluate.
	hint := 4 * time.Millisecond
	shedPeer(t, cb, []time.Duration{hint, hint, hint, hint, 0}, &proposals)

	c := NewClient(ca)
	if err := c.Register("add", compileAdd(t)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err := c.Evaluate(context.Background(), "add", []uint32{1}, WithRetry(2))
	var retry *RetryableError
	if !errors.As(err, &retry) {
		t.Fatalf("got %v, want *RetryableError after exhausting retries", err)
	}
	if n := proposals.Load(); n != 3 {
		t.Fatalf("peer saw %d proposals, want 3 (1 + WithRetry(2))", n)
	}
	// Two backoffs of at least hint/2 each must have elapsed.
	if elapsed := time.Since(start); elapsed < hint {
		t.Errorf("retries elapsed %v, want at least %v of backoff", elapsed, hint)
	}

	// A hinted shed followed by a plain rejection: the retry loop runs
	// once more, then stops on the permanent verdict without consuming
	// the remaining budget.
	_, err = c.Evaluate(context.Background(), "add", []uint32{1}, WithRetry(5))
	var rej *RejectedError
	if !errors.As(err, &rej) || rej.RetryAfter != 0 {
		t.Fatalf("got %v, want plain *RejectedError", err)
	}
	if errors.As(err, &retry) {
		t.Error("permanent rejection surfaced as retryable")
	}
	if n := proposals.Load(); n != 5 {
		t.Errorf("peer saw %d proposals total, want 5", n)
	}
}

// TestClientRetryHonorsContext: a cancelled context unblocks the backoff
// sleep instead of waiting the full hint out.
func TestClientRetryHonorsContext(t *testing.T) {
	ca, cb := net.Pipe()
	defer ca.Close()
	defer cb.Close()
	var proposals atomic.Int64
	shedPeer(t, cb, []time.Duration{time.Minute}, &proposals)

	c := NewClient(ca)
	if err := c.Register("add", compileAdd(t)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.Evaluate(ctx, "add", []uint32{1}, WithRetry(1))
		done <- err
	}()
	// Wait for the first shed round trip, then cancel mid-backoff.
	for proposals.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Evaluate did not unblock from the backoff sleep")
	}
}
