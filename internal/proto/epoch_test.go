package proto

import (
	"context"
	"fmt"
	"net"
	"slices"
	"testing"
	"time"

	"arm2gc/internal/ot"
)

// session runs one session between a garbler and an evaluator over conn
// ends a and b, each with its own OT state, and returns both errors and
// the evaluator's outputs.
func session(cfg Config, alice, bob []bool, a, b net.Conn, gst, est *OTState) (gerr, eerr error, out []bool) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	gcfg, ecfg := cfg, cfg
	gcfg.OT, ecfg.OT = gst, est
	ch := make(chan error, 1)
	go func() {
		_, err := RunGarbler(ctx, a, gcfg, alice, nil)
		if err != nil {
			a.Close() // unblock the evaluator, as a server dropping the connection would
		}
		ch <- err
	}()
	res, eerr := RunEvaluator(ctx, b, ecfg, bob)
	if eerr != nil {
		b.Close()
	}
	gerr = <-ch
	if res != nil {
		out = res.Outputs
	}
	return gerr, eerr, out
}

// TestOTStateSessions runs sessions over one connection with both
// parties' OT states in step: the first runs the base OTs under the
// granted epoch, every later one extends it, and all decode the outputs a
// fresh-base session does.
func TestOTStateSessions(t *testing.T) {
	cfg, alice, bob := multiCycleConfig(t, 2)
	_, want := runBoth(t, cfg, alice, bob)
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	gst, est := new(OTState), new(OTState)
	var first ot.Epoch
	for i := 0; i < 4; i++ {
		granted, err := gst.Grant(est.Held())
		if err != nil {
			t.Fatal(err)
		}
		if (i == 0) == (granted == est.Held()) {
			t.Fatalf("session %d: granted %x for a proposal of %x", i, granted, est.Held())
		}
		if i == 0 {
			first = granted
		}
		est.Epoch = granted
		gerr, eerr, out := session(cfg, alice, bob, a, b, gst, est)
		if gerr != nil || eerr != nil {
			t.Fatalf("session %d: garbler %v, evaluator %v", i, gerr, eerr)
		}
		if !slices.Equal(out, want.Outputs) {
			t.Fatalf("session %d: outputs %v, want %v", i, out, want.Outputs)
		}
	}
	for _, st := range []*OTState{gst, est} {
		if st.Held() != first {
			t.Errorf("holds epoch %x after 4 sessions, want the first session's %x", st.Held(), first)
		}
	}
}

// TestOTSetup: a set-up runs the base OTs under the granted epoch on both
// sides and moves no session; every session after it extends that epoch,
// the first included, and decodes the outputs a fresh-base session does.
func TestOTSetup(t *testing.T) {
	cfg, alice, bob := multiCycleConfig(t, 2)
	_, want := runBoth(t, cfg, alice, bob)
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	gst, est := new(OTState), new(OTState)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ch := make(chan error, 1)
	go func() {
		prop, err := ReadProposal(a)
		if err == nil && !prop.Setup {
			err = fmt.Errorf("proposal is not a set-up: %+v", prop)
		}
		if err != nil {
			ch <- err
			return
		}
		grant := Grant{Outputs: OutputBoth, CycleBatch: 1, MaxCycles: 1}
		if grant.Epoch, err = gst.Grant(prop.Epoch); err == nil {
			if err = WriteGrant(a, grant); err == nil {
				err = ServeSetup(ctx, a, gst)
			}
		}
		ch <- err
	}()
	if err := SetupOT(ctx, b, Proposal{Program: "p"}, est); err != nil {
		t.Fatal(err)
	}
	if err := <-ch; err != nil {
		t.Fatal(err)
	}
	held := est.Held()
	if held == (ot.Epoch{}) || gst.Held() != held {
		t.Fatalf("after the set-up: evaluator holds %x, garbler %x", held, gst.Held())
	}
	for i := 0; i < 3; i++ {
		granted, err := gst.Grant(est.Held())
		if err != nil {
			t.Fatal(err)
		}
		if granted != held {
			t.Fatalf("session %d: granted %x, want the set-up's %x echoed", i, granted, held)
		}
		est.Epoch = granted
		gerr, eerr, out := session(cfg, alice, bob, a, b, gst, est)
		if gerr != nil || eerr != nil {
			t.Fatalf("session %d: garbler %v, evaluator %v", i, gerr, eerr)
		}
		if !slices.Equal(out, want.Outputs) {
			t.Fatalf("session %d: outputs %v, want %v", i, out, want.Outputs)
		}
	}
}

// TestOTStateDisagreementFails: when one party extends an epoch the other
// does not hold — a bare evaluator facing an echoed grant, or an evaluator
// whose epoch the garbler has replaced — the session fails with an error
// on the OT frames' lengths; it never decodes outputs from wrong labels.
func TestOTStateDisagreementFails(t *testing.T) {
	cfg, alice, bob := multiCycleConfig(t, 2)
	open := func(t *testing.T) (a, b net.Conn, gst, est *OTState) {
		t.Helper()
		a, b = net.Pipe()
		gst, est = new(OTState), new(OTState)
		id, err := gst.Grant(ot.Epoch{})
		if err != nil {
			t.Fatal(err)
		}
		est.Epoch = id
		if gerr, eerr, _ := session(cfg, alice, bob, a, b, gst, est); gerr != nil || eerr != nil {
			t.Fatalf("opening session: garbler %v, evaluator %v", gerr, eerr)
		}
		return a, b, gst, est
	}
	t.Run("bare evaluator, echoed grant", func(t *testing.T) {
		a, b, gst, est := open(t)
		defer a.Close()
		defer b.Close()
		if _, err := gst.Grant(est.Held()); err != nil {
			t.Fatal(err)
		}
		gerr, eerr, out := session(cfg, alice, bob, a, b, gst, nil)
		if gerr == nil || eerr == nil || out != nil {
			t.Fatalf("garbler %v, evaluator %v, outputs %v: want both to fail", gerr, eerr, out)
		}
	})
	t.Run("evaluator extends a replaced epoch", func(t *testing.T) {
		a, b, gst, est := open(t)
		defer a.Close()
		defer b.Close()
		if _, err := gst.Grant(ot.Epoch{}); err != nil { // the garbler opens a new epoch
			t.Fatal(err)
		}
		// The evaluator, out of step, believes the old epoch was echoed.
		gerr, eerr, out := session(cfg, alice, bob, a, b, gst, est)
		if gerr == nil || eerr == nil || out != nil {
			t.Fatalf("garbler %v, evaluator %v, outputs %v: want both to fail", gerr, eerr, out)
		}
	})
}
