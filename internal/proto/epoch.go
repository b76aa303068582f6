package proto

import (
	"context"
	"io"

	"arm2gc/internal/gc"
	"arm2gc/internal/ot"
	"arm2gc/internal/wire"
)

// OTState carries one party's base OTs across the sessions of one program
// on a connection. It holds at most one epoch (one run of the base OTs,
// see package ot) and the epoch the current session's grant named. An OT
// set-up (SetupOT, ServeSetup) runs the base OTs ahead of the sessions. A
// session extends the held epoch when the grant names it; otherwise it
// runs the base OTs itself and holds the new epoch, under the granted id,
// in place of the old. A nil *OTState runs fresh base OTs and holds
// nothing, which is what a party that never saw the grant does.
//
// The server echoes a proposed epoch only when it holds it, and epoch ids
// are random, so the parties can disagree only when one of them has lost
// the state the other still names — a bare evaluator, say, facing an
// echo. One side then runs base OTs while the other extends, and the OT
// frames' exact lengths fail the session instead of delivering wrong
// labels.
//
// An OTState is not safe for concurrent use; the sessions of a connection
// use it in turn.
type OTState struct {
	// Epoch is the epoch the session's grant named: set it from the grant
	// (Grant on the server) before each session.
	Epoch ot.Epoch

	sender   *ot.SenderBase
	receiver *ot.ReceiverBase
}

// Held returns the epoch of the base OTs this state holds, zero when
// none (or s is nil): what an evaluator proposes.
func (s *OTState) Held() ot.Epoch {
	switch {
	case s == nil:
	case s.sender != nil:
		return s.sender.Epoch()
	case s.receiver != nil:
		return s.receiver.Epoch()
	}
	return ot.Epoch{}
}

// Grant is the server's epoch rule for a proposal that carried proposed:
// echo it when this state holds it (the session extends), and otherwise
// name a fresh epoch (the session runs the base OTs under it). It sets
// Epoch and returns it for the grant.
func (s *OTState) Grant(proposed ot.Epoch) (ot.Epoch, error) {
	if proposed == (ot.Epoch{}) || proposed != s.Held() {
		var err error
		if proposed, err = ot.NewEpoch(); err != nil {
			return ot.Epoch{}, err
		}
	}
	s.Epoch = proposed
	return proposed, nil
}

// extends reports whether the session extends a base of epoch held.
func (s *OTState) extends(held ot.Epoch) bool {
	return s != nil && s.Epoch != (ot.Epoch{}) && s.Epoch == held
}

// epoch is the id a fresh base state is created under.
func (s *OTState) epoch() ot.Epoch {
	if s == nil {
		return ot.Epoch{}
	}
	return s.Epoch
}

// send is the garbler's OT for Bob's label pairs, bound to the session's
// hello payload. The base OTs, when it runs them, and the extension are
// charged to their phases on clk.
func (s *OTState) send(conn io.ReadWriter, clk *clock, hello []byte, pairs [][2]gc.Label) error {
	if len(pairs) == 0 {
		return nil
	}
	var b *ot.SenderBase
	if s != nil && s.sender != nil && s.extends(s.sender.Epoch()) {
		b = s.sender
	} else {
		clk.enter(PhaseOTSetup)
		var err error
		if b, err = ot.NewSenderBase(conn, s.epoch()); err != nil {
			return err
		}
		if s != nil {
			s.sender = b
		}
	}
	clk.enter(PhaseOTExtension)
	return b.Extend(conn, hello, pairs)
}

// receive is the evaluator's OT for its choice bits, bound to the
// session's hello payload. Phases are charged as in send.
func (s *OTState) receive(conn io.ReadWriter, clk *clock, hello []byte, choices []bool) ([]gc.Label, error) {
	if len(choices) == 0 {
		return nil, nil
	}
	var b *ot.ReceiverBase
	if s != nil && s.receiver != nil && s.extends(s.receiver.Epoch()) {
		b = s.receiver
	} else {
		clk.enter(PhaseOTSetup)
		var err error
		if b, err = ot.NewReceiverBase(conn, s.epoch()); err != nil {
			return nil, err
		}
		if s != nil {
			s.receiver = b
		}
	}
	clk.enter(PhaseOTExtension)
	return b.Extend(conn, hello, choices)
}

// SetupOT is the evaluator's half of an OT set-up: it proposes p as a
// set-up and, on a grant, runs the base OTs under the granted epoch and
// holds them in st, so that every session of the program on this
// connection, the first included, only extends them. A set-up is a
// session without cycles: after the base OTs the garbler's half ends on an
// empty decode frame and this half on an empty outputs frame, so a relay
// sees the terminal frames it sees in any session. A rejection comes back
// as *Rejected with st untouched and the connection usable.
func SetupOT(ctx context.Context, conn io.ReadWriter, p Proposal, st *OTState) error {
	if ctx == nil {
		ctx = context.Background()
	}
	stop := watchContext(ctx, conn)
	defer stop()
	return abortErr(ctx, setupOT(conn, p, st))
}

func setupOT(conn io.ReadWriter, p Proposal, st *OTState) error {
	p.Setup, p.Epoch = true, ot.Epoch{}
	g, err := negotiate(conn, p)
	if err != nil {
		return err
	}
	b, err := ot.NewReceiverBase(conn, g.Epoch)
	if err != nil {
		return err
	}
	if _, err := wire.Read(conn, msgDecode, 0, 0); err != nil {
		return err
	}
	if err := wire.Write(conn, msgOutputs, nil); err != nil {
		return err
	}
	st.Epoch, st.receiver = g.Epoch, b
	return nil
}

// ServeSetup is the garbler's half of an OT set-up whose grant named
// st.Epoch (set by Grant): the base OTs, held in st, then the terminal
// frames of SetupOT.
func ServeSetup(ctx context.Context, conn io.ReadWriter, st *OTState) error {
	if ctx == nil {
		ctx = context.Background()
	}
	stop := watchContext(ctx, conn)
	defer stop()
	return abortErr(ctx, serveSetup(conn, st))
}

func serveSetup(conn io.ReadWriter, st *OTState) error {
	b, err := ot.NewSenderBase(conn, st.Epoch)
	if err != nil {
		return err
	}
	if err := wire.Write(conn, msgDecode, nil); err != nil {
		return err
	}
	if _, err := wire.Read(conn, msgOutputs, 0, 0); err != nil {
		return err
	}
	st.sender = b
	return nil
}
