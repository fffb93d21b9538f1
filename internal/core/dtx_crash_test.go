package core

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"hybridcc/internal/adt"
	"hybridcc/internal/commitproto"
	"hybridcc/internal/histories"
	"hybridcc/internal/tstamp"
	"hybridcc/internal/verify"
)

// These tests exercise the commit protocol's failure paths end to end
// through core.TxParticipant: a participant that loses the commit decision
// (crash after voting) leaves its branch prepared — locks held — until a
// later decision resolves it, and a round that cannot gather every vote
// releases the locks of every branch that did vote.  Every scenario runs
// over the in-process Direct transport bare and behind a FaultTransport —
// a site crash is Direct.Crash, a lost message a scripted drop — since the
// recovery obligations are transport-independent.

// protoTransport bundles a transport with its crash switch and (for the
// fault kind) its script, so the crash-path scenarios can be written once
// and run over both kinds.
type protoTransport struct {
	tr     commitproto.Transport
	crash  func()
	faults *commitproto.FaultTransport // nil for the bare direct kind
}

var transportKinds = []string{"direct", "fault(direct)"}

func makeTransport(kind, name string, p commitproto.Participant) protoTransport {
	d := commitproto.NewDirect(name, p)
	switch kind {
	case "direct":
		return protoTransport{tr: d, crash: d.Crash}
	case "fault(direct)":
		f := commitproto.NewFaultTransport()
		return protoTransport{tr: f.Wrap(d), crash: d.Crash, faults: f}
	default:
		panic("unknown transport kind " + kind)
	}
}

// overTransportKinds runs f as one subtest per transport kind.
func overTransportKinds(t *testing.T, f func(t *testing.T, kind string)) {
	for _, kind := range transportKinds {
		t.Run(kind, func(t *testing.T) { f(t, kind) })
	}
}

// runRound runs one protocol round for the given branches, one site each,
// over kind's transports.
func runRound(ctx context.Context, kind string, coord *commitproto.Coordinator, tx histories.TxID, brs ...*Tx) (commitproto.Decision, histories.Timestamp, error) {
	trs := make([]commitproto.Transport, len(brs))
	for i, br := range brs {
		trs[i] = makeTransport(kind, "site"+string(rune('A'+i)), TxParticipant{Tx: br}).tr
	}
	return coord.RunTransports(ctx, tx, trs)
}

// decisionDropper wraps a participant and swallows commit decisions while
// the simulated site is down (crashed after voting yes): the decision was
// made without it, and only recovery — recover() then a re-delivery —
// applies it.
type decisionDropper struct {
	inner commitproto.Participant

	mu      sync.Mutex
	up      bool
	dropped []histories.Timestamp
}

func (d *decisionDropper) Prepare(tx histories.TxID) (histories.Timestamp, bool) {
	return d.inner.Prepare(tx)
}

func (d *decisionDropper) Commit(tx histories.TxID, ts histories.Timestamp) {
	d.mu.Lock()
	up := d.up
	if !up {
		d.dropped = append(d.dropped, ts)
	}
	d.mu.Unlock()
	if up {
		d.inner.Commit(tx, ts)
	}
}

// recover brings the site back: subsequent deliveries reach the inner
// participant.
func (d *decisionDropper) recover() {
	d.mu.Lock()
	d.up = true
	d.mu.Unlock()
}

func (d *decisionDropper) Abort(tx histories.TxID) { d.inner.Abort(tx) }

// debitBlocked reports whether a fresh debit on the site is blocked by a
// held lock (successful debits conflict under Table V).
func debitBlocked(s *site) bool {
	tx := s.sys.Begin()
	defer tx.Abort()
	_, err := s.acc.Call(tx, adt.DebitInv(1))
	return errors.Is(err, ErrTimeout)
}

func TestCrashAfterVoteLeavesBranchPreparedUntilDecision(t *testing.T) {
	for _, kind := range transportKinds {
		t.Run(kind, func(t *testing.T) {
			a, b := newSite("accA"), newSite("accB")
			fund(t, a, 100)
			fund(t, b, 100)

			brA, brB := a.sys.Begin(), b.sys.Begin()
			if res, err := a.acc.Call(brA, adt.DebitInv(10)); err != nil || res != adt.ResOk {
				t.Fatalf("debit A: %q %v", res, err)
			}
			if res, err := b.acc.Call(brB, adt.DebitInv(10)); err != nil || res != adt.ResOk {
				t.Fatalf("debit B: %q %v", res, err)
			}

			// Site B loses the decision: its participant is down when the
			// message arrives (bare direct), or the message itself is lost
			// on the way (a scripted drop; the site stays up).
			dropB := &decisionDropper{inner: TxParticipant{Tx: brB}}
			ta := makeTransport(kind, "siteA", TxParticipant{Tx: brA})
			tb := makeTransport(kind, "siteB", dropB)
			if tb.faults != nil {
				dropB.recover()
				tb.faults.Script(commitproto.ClassCommit, commitproto.DropRequest)
			}

			coord := commitproto.NewCoordinator(tstamp.NewSource(), time.Second)
			dec, ts, err := coord.RunTransports(context.Background(), "gtx",
				[]commitproto.Transport{ta.tr, tb.tr})
			if err != nil {
				t.Fatal(err)
			}
			if dec != commitproto.Committed {
				t.Fatalf("decision = %v, want committed (both voted yes)", dec)
			}

			// Site A applied the decision; site B lost it.  B's branch must
			// still be prepared: intentions not merged, locks held.
			if got := adt.AccountBalance(a.acc.CommittedState()); got != 90 {
				t.Errorf("site A balance = %d, want 90", got)
			}
			if got := adt.AccountBalance(b.acc.CommittedState()); got != 100 {
				t.Errorf("site B balance = %d, want 100 (decision lost, not applied)", got)
			}
			if !debitBlocked(b) {
				t.Fatal("site B released its locks without learning the decision")
			}

			// Recovery: the decision is re-delivered with the round's
			// timestamp — through the still-live transport, which the
			// lifecycle contract keeps deliverable until exactly this
			// point.  CommitAt is idempotent in outcome: the branch merges
			// at the timestamp every other site already used.
			dropB.recover()
			if !tb.tr.StartCommit(context.Background(), "gtx", ts, time.Second)() {
				t.Fatal("recovery delivery failed on a live transport")
			}
			if got := adt.AccountBalance(b.acc.CommittedState()); got != 90 {
				t.Errorf("site B balance after recovery = %d, want 90", got)
			}
			if wts, ok := brB.Timestamp(); !ok || wts != ts {
				t.Errorf("branch timestamp = (%d,%v), want (%d,true)", wts, ok, ts)
			}
			if debitBlocked(b) {
				t.Error("site B still holds locks after the decision resolved the branch")
			}

			for _, s := range []*site{a, b} {
				specs := histories.SpecMap{s.acc.Name(): adt.NewAccount()}
				if err := verify.CheckHybridAtomic(s.rec.History(), specs); err != nil {
					t.Errorf("site %s: %v", s.acc.Name(), err)
				}
			}
		})
	}
}

// TestPreparedBranchFrozen pins the 2PC participant rule: after voting
// (Prepare), a branch accepts no further operations and no local commit —
// otherwise a racing call could raise the timestamp bound above the
// coordinator's already-chosen decision timestamp.  Only the decision
// (CommitAt or Abort) resolves it.
func TestPreparedBranchFrozen(t *testing.T) {
	s := newSite("acc")
	fund(t, s, 100)

	br := s.sys.Begin()
	if res, err := s.acc.Call(br, adt.DebitInv(10)); err != nil || res != adt.ResOk {
		t.Fatalf("debit: %q %v", res, err)
	}
	lower, err := br.Prepare()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.acc.Call(br, adt.CreditInv(1)); !errors.Is(err, ErrTxBusy) {
		t.Fatalf("call on prepared branch = %v, want ErrTxBusy", err)
	}
	if err := br.Commit(); !errors.Is(err, ErrTxBusy) {
		t.Fatalf("local commit of prepared branch = %v, want ErrTxBusy", err)
	}
	if again, err := br.Prepare(); err != nil || again != lower {
		t.Fatalf("re-prepare = (%d, %v), want (%d, nil)", again, err, lower)
	}
	if err := br.CommitAt(lower + 1); err != nil {
		t.Fatal(err)
	}
	if got := adt.AccountBalance(s.acc.CommittedState()); got != 90 {
		t.Fatalf("balance = %d, want 90", got)
	}
}

func TestPartialPrepareAbortReleasesVotedLocks(t *testing.T) {
	for _, kind := range transportKinds {
		t.Run(kind, func(t *testing.T) {
			a, b, c := newSite("accA"), newSite("accB"), newSite("accC")
			for _, s := range []*site{a, b, c} {
				fund(t, s, 100)
			}

			brA, brB, brC := a.sys.Begin(), b.sys.Begin(), c.sys.Begin()
			for _, p := range []struct {
				s  *site
				br *Tx
			}{{a, brA}, {b, brB}, {c, brC}} {
				if res, err := p.s.acc.Call(p.br, adt.DebitInv(10)); err != nil || res != adt.ResOk {
					t.Fatalf("debit %s: %q %v", p.s.acc.Name(), res, err)
				}
			}

			ta := makeTransport(kind, "siteA", TxParticipant{Tx: brA})
			tb := makeTransport(kind, "siteB", TxParticipant{Tx: brB})
			tc := makeTransport(kind, "siteC", TxParticipant{Tx: brC})
			tc.crash() // site C never votes

			coord := commitproto.NewCoordinator(tstamp.NewSource(), 50*time.Millisecond)
			dec, _, err := coord.RunTransports(context.Background(), "gtx",
				[]commitproto.Transport{ta.tr, tb.tr, tc.tr})
			if dec != commitproto.Aborted {
				t.Fatalf("decision = %v, want aborted", dec)
			}
			if err == nil || !strings.Contains(err.Error(), "unreachable") {
				t.Fatalf("err = %v, want unreachable report", err)
			}

			// The voted branches were aborted by the protocol: completed (a
			// direct Abort is redundant), unwound (balances untouched), and
			// unlocked (a conflicting debit is grantable again immediately).
			for _, p := range []struct {
				s  *site
				br *Tx
			}{{a, brA}, {b, brB}} {
				if err := p.br.Abort(); !errors.Is(err, ErrTxDone) {
					t.Errorf("branch at %s: Abort = %v, want ErrTxDone (protocol aborted it)", p.s.acc.Name(), err)
				}
				if got := adt.AccountBalance(p.s.acc.CommittedState()); got != 100 {
					t.Errorf("site %s balance = %d, want 100", p.s.acc.Name(), got)
				}
				if debitBlocked(p.s) {
					t.Errorf("site %s still holds the aborted branch's locks", p.s.acc.Name())
				}
			}
			// Site C never voted, so nothing there needs releasing; its
			// branch is still active and is cleaned up directly.
			_ = brC.Abort()
		})
	}
}

func TestCoordinatorCancelledMidPrepareAbortsAllBranches(t *testing.T) {
	for _, kind := range transportKinds {
		t.Run(kind, func(t *testing.T) {
			a, b := newSite("accA"), newSite("accB")
			fund(t, a, 100)
			fund(t, b, 100)

			brA, brB := a.sys.Begin(), b.sys.Begin()
			if _, err := a.acc.Call(brA, adt.DebitInv(10)); err != nil {
				t.Fatal(err)
			}
			if _, err := b.acc.Call(brB, adt.DebitInv(10)); err != nil {
				t.Fatal(err)
			}
			ta := makeTransport(kind, "siteA", TxParticipant{Tx: brA})
			tb := makeTransport(kind, "siteB", TxParticipant{Tx: brB})

			ctx, cancel := context.WithCancel(context.Background())
			cancel() // already cancelled: the round must abort, never commit
			coord := commitproto.NewCoordinator(tstamp.NewSource(), time.Second)
			dec, _, err := coord.RunTransports(ctx, "gtx",
				[]commitproto.Transport{ta.tr, tb.tr})
			if dec != commitproto.Aborted {
				t.Fatalf("decision = %v, want aborted", dec)
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			// The aborts were delivered outside ctx: no branch is left
			// prepared.
			for _, p := range []struct {
				s  *site
				br *Tx
			}{{a, brA}, {b, brB}} {
				if err := p.br.Abort(); !errors.Is(err, ErrTxDone) {
					t.Errorf("branch at %s: Abort = %v, want ErrTxDone", p.s.acc.Name(), err)
				}
				if debitBlocked(p.s) {
					t.Errorf("site %s still locked after cancelled round", p.s.acc.Name())
				}
			}
		})
	}
}
