package commitproto

import (
	"context"
	"errors"
	"testing"
	"time"

	"hybridcc/internal/histories"
)

// faultPair wires two yes-voting fake participants behind fault views over
// the direct transport — the composition the cluster uses for
// deterministic network-fault tests — and returns the controllers and the
// round's two transports.
func faultPair() (a, b *fakeParticipant, fa, fb *FaultTransport, trs []Transport) {
	a, b = newFake(10, true), newFake(25, true)
	fa, fb = NewFaultTransport(), NewFaultTransport()
	trs = []Transport{fa.Wrap(NewDirect("A", a)), fb.Wrap(NewDirect("B", b))}
	return
}

// A dropped prepare request makes the site unreachable: the round aborts,
// the dropped site never hears prepare (presumed abort resolves it), and
// the reachable peer — which voted yes and holds locks — receives the
// abort decision.
func TestFaultDroppedPrepareAborts(t *testing.T) {
	a, b, fa, _, trs := faultPair()
	fa.Script(ClassPrepare, DropRequest)

	dec, _, err := coordinator().RunTransports(context.Background(), "T1", trs)
	if dec != Aborted {
		t.Fatalf("decision = %v, want aborted", dec)
	}
	if err == nil {
		t.Fatal("want an unreachable-participant error")
	}
	if got := len(a.prepared); got != 0 {
		t.Fatalf("dropped site saw %d prepares, want 0", got)
	}
	if ts, ok := b.committedTS("T1"); ok {
		t.Fatalf("peer committed at %d after an aborted round", ts)
	}
	if b.abortedCount() != 1 {
		t.Fatalf("peer aborted %d times, want 1", b.abortedCount())
	}
}

// A dropped prepare REPLY is the nastier half: the participant voted yes
// and prepared, but the coordinator saw it as unreachable.  The round
// aborts, and the abort decision must still reach the prepared site —
// otherwise it would hold locks forever.
func TestFaultDroppedPrepareReply(t *testing.T) {
	a, _, fa, _, trs := faultPair()
	fa.Script(ClassPrepare, DropReply)

	dec, _, err := coordinator().RunTransports(context.Background(), "T1", trs)
	if dec != Aborted {
		t.Fatalf("decision = %v, want aborted", dec)
	}
	if err == nil {
		t.Error("a site that never answered must be reported")
	}
	if got := len(a.prepared); got != 1 {
		t.Fatalf("site saw %d prepares, want 1 (reply dropped, not request)", got)
	}
	if a.abortedCount() != 1 {
		t.Fatalf("prepared site aborted %d times, want 1 — it would hold locks forever", a.abortedCount())
	}
}

// Decision-before-delivery: the commit decision to one site is held (not
// delivered), the coordinator commits anyway — the decision is reached
// once votes are in; delivery failures cannot reverse it — and the held
// message delivered later lands the same commit at the same timestamp.
func TestFaultHeldCommitDeliveredLate(t *testing.T) {
	a, b, fa, _, trs := faultPair()
	fa.Script(ClassCommit, Hold)

	dec, ts, err := coordinator().RunTransports(context.Background(), "T1", trs)
	if err != nil {
		t.Fatal(err)
	}
	if dec != Committed {
		t.Fatalf("decision = %v, want committed (decision precedes delivery)", dec)
	}
	if _, ok := a.committedTS("T1"); ok {
		t.Fatal("held decision delivered early")
	}
	if got, ok := b.committedTS("T1"); !ok || got != ts {
		t.Fatalf("peer committed at %d/%v, want %d", got, ok, ts)
	}
	if n := fa.ReleaseHeld(); n != 1 {
		t.Fatalf("released %d held messages, want 1", n)
	}
	if got, ok := a.committedTS("T1"); !ok || got != ts {
		t.Fatalf("late delivery committed at %d/%v, want %d", got, ok, ts)
	}
}

// Duplicated decisions exercise receiver idempotence: the participant
// sees the commit twice and must land exactly one commit at one
// timestamp.  (The fake applies blindly; the map makes the second apply
// a no-op at the same timestamp — mirroring the real participant's
// ErrTxDone tolerance.)
func TestFaultDuplicateCommitIdempotent(t *testing.T) {
	a, _, fa, _, trs := faultPair()
	fa.Script(ClassCommit, Dup)

	dec, ts, err := coordinator().RunTransports(context.Background(), "T1", trs)
	if err != nil || dec != Committed {
		t.Fatalf("round: %v %v", dec, err)
	}
	if fa.Delivered(ClassCommit) != 2 {
		t.Fatalf("delivered %d commits, want 2", fa.Delivered(ClassCommit))
	}
	if got, ok := a.committedTS("T1"); !ok || got != ts {
		t.Fatalf("committed at %d/%v, want %d", got, ok, ts)
	}
}

// A partition drops everything: the round aborts and consumes no script.
func TestFaultPartition(t *testing.T) {
	a, _, fa, _, trs := faultPair()
	fa.SetPartitioned(true)

	dec, _, _ := coordinator().RunTransports(context.Background(), "T1", trs)
	if dec != Aborted {
		t.Fatalf("decision = %v, want aborted", dec)
	}
	if len(a.prepared) != 0 || a.abortedCount() != 0 {
		t.Fatalf("partitioned site saw traffic: %d prepares, %d aborts", len(a.prepared), a.abortedCount())
	}

	// Healing the partition lets the next round through.
	fa.SetPartitioned(false)
	dec, _, err := coordinator().RunTransports(context.Background(), "T2", trs)
	if err != nil || dec != Committed {
		t.Fatalf("post-heal round: %v %v", dec, err)
	}
}

// PassThrough entries skip healthy messages, so a script can target the
// Nth message of a class deterministically.
func TestFaultScriptTargetsNthMessage(t *testing.T) {
	a, _, fa, _, trs := faultPair()
	fa.Script(ClassPrepare, PassThrough, DropRequest)

	if dec, _, err := coordinator().RunTransports(context.Background(), "T1", trs); err != nil || dec != Committed {
		t.Fatalf("first round: %v %v", dec, err)
	}
	if dec, _, _ := coordinator().RunTransports(context.Background(), "T2", trs); dec != Aborted {
		t.Fatalf("second round = %v, want aborted (scripted drop)", dec)
	}
	if got := len(a.prepared); got != 1 {
		t.Fatalf("site prepared %d times, want 1", got)
	}
}

// The crash-path suite shape from transport_test, run through the fault
// transport: a site that votes no behind a healthy fault transport still
// aborts the round — the wrapper must not mask votes.
func TestFaultTransparentVotes(t *testing.T) {
	a := newFake(10, true)
	b := newFake(25, false) // votes no
	trs := []Transport{NewFaultTransport().Wrap(NewDirect("A", a)), NewFaultTransport().Wrap(NewDirect("B", b))}

	dec, _, err := coordinator().RunTransports(context.Background(), "T1", trs)
	if dec != Aborted {
		t.Fatalf("decision = %v, want aborted", dec)
	}
	if errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("no-vote abort misreported as timeout: %v", err)
	}
	if a.abortedCount() != 1 {
		t.Fatalf("yes-voter aborted %d times, want 1", a.abortedCount())
	}
}

// Reorder coverage at every 2PC message-class pair, run with every inner
// transport kind under a fault view.  Reorder is Hold with an automatic release: message N is
// delivered only after k further messages have crossed the same link, so
// each subtest pins one late-message hazard of the state machine.
func TestFaultReorderMatrix(t *testing.T) {
	for _, kind := range transportKinds {
		t.Run(kind.name, func(t *testing.T) {
			// A prepare request reordered past a later round's decide:
			// round T1 aborts (site unreachable), and T1's prepare finally
			// arrives after T2 has fully committed.  The stale prepare
			// must land as a no-op vote into the void.
			t.Run("prepare-after-decide", func(t *testing.T) {
				a, b := newFake(10, true), newFake(25, true)
				ta, stopA := kind.make(t, "A", a)
				tb, stopB := kind.make(t, "B", b)
				defer stopA()
				defer stopB()
				fa := NewFaultTransport()
				trs := []Transport{fa.Wrap(ta), NewFaultTransport().Wrap(tb)}
				// Deliveries through fa after capture: T1 abort (1),
				// T2 prepare (2), T2 commit (3) — release after the decide.
				fa.ScriptReorder(ClassPrepare, 3)

				if dec, _, _ := coordinator().RunTransports(context.Background(), "T1", trs); dec != Aborted {
					t.Fatalf("T1 = %v, want aborted (prepare captured)", dec)
				}
				if got := len(a.prepared); got != 0 {
					t.Fatalf("captured prepare delivered early (%d prepares)", got)
				}
				if fa.ReorderPending() != 1 {
					t.Fatalf("pending = %d, want 1", fa.ReorderPending())
				}
				dec, ts2, err := coordinator().RunTransports(context.Background(), "T2", trs)
				if err != nil || dec != Committed {
					t.Fatalf("T2: %v %v", dec, err)
				}
				if fa.ReorderPending() != 0 {
					t.Fatalf("pending = %d after release point, want 0", fa.ReorderPending())
				}
				a.mu.Lock()
				order := append([]histories.TxID(nil), a.prepared...)
				a.mu.Unlock()
				if len(order) != 2 || order[0] != "T2" || order[1] != "T1" {
					t.Fatalf("prepare order = %v, want [T2 T1] (T1 after T2's decide)", order)
				}
				if got, ok := a.committedTS("T2"); !ok || got != ts2 {
					t.Fatalf("T2 committed at %d/%v, want %d", got, ok, ts2)
				}
				if _, ok := a.committedTS("T1"); ok {
					t.Fatal("aborted T1 committed via stale prepare")
				}
			})

			// A commit decision reordered past the next round's prepare:
			// T1's decide is captured, T2 starts, and the decide lands
			// mid-T2 — the classic decision-after-later-traffic delivery.
			// The late decide must still commit T1 at its own timestamp.
			t.Run("decide-after-prepare", func(t *testing.T) {
				a, b := newFake(10, true), newFake(25, true)
				ta, stopA := kind.make(t, "A", a)
				tb, stopB := kind.make(t, "B", b)
				defer stopA()
				defer stopB()
				fa := NewFaultTransport()
				trs := []Transport{fa.Wrap(ta), NewFaultTransport().Wrap(tb)}
				fa.ScriptReorder(ClassCommit, 1) // release after T2's prepare

				dec, ts1, err := coordinator().RunTransports(context.Background(), "T1", trs)
				if err != nil || dec != Committed {
					t.Fatalf("T1: %v %v (decision precedes delivery)", dec, err)
				}
				if _, ok := a.committedTS("T1"); ok {
					t.Fatal("captured decide delivered early")
				}
				dec, ts2, err := coordinator().RunTransports(context.Background(), "T2", trs)
				if err != nil || dec != Committed {
					t.Fatalf("T2: %v %v", dec, err)
				}
				if got, ok := a.committedTS("T1"); !ok || got != ts1 {
					t.Fatalf("late T1 decide committed at %d/%v, want %d", got, ok, ts1)
				}
				if got, ok := a.committedTS("T2"); !ok || got != ts2 {
					t.Fatalf("T2 committed at %d/%v, want %d", got, ok, ts2)
				}
			})

			// An abort decision reordered past the next round's decide: the
			// prepared-but-unreachable site learns its abort only after
			// unrelated traffic commits.  Until then it holds locks; the
			// late abort must still release exactly once.
			t.Run("abort-after-decide", func(t *testing.T) {
				a, b := newFake(10, true), newFake(25, true)
				ta, stopA := kind.make(t, "A", a)
				tb, stopB := kind.make(t, "B", b)
				defer stopA()
				defer stopB()
				fa := NewFaultTransport()
				trs := []Transport{fa.Wrap(ta), NewFaultTransport().Wrap(tb)}
				fa.Script(ClassPrepare, DropReply) // a prepares, looks unreachable
				fa.ScriptReorder(ClassAbort, 2)    // release after T2 prepare+decide

				if dec, _, _ := coordinator().RunTransports(context.Background(), "T1", trs); dec != Aborted {
					t.Fatalf("T1 = %v, want aborted", dec)
				}
				if a.abortedCount() != 0 {
					t.Fatal("captured abort delivered early")
				}
				dec, ts2, err := coordinator().RunTransports(context.Background(), "T2", trs)
				if err != nil || dec != Committed {
					t.Fatalf("T2: %v %v", dec, err)
				}
				if a.abortedCount() != 1 {
					t.Fatalf("late abort count = %d, want 1", a.abortedCount())
				}
				if got, ok := a.committedTS("T2"); !ok || got != ts2 {
					t.Fatalf("T2 committed at %d/%v, want %d", got, ok, ts2)
				}
			})

			// Dup-decide-after-forget: T1's decide is captured, the
			// coordinator redelivers it (the captured copy is now a
			// duplicate), the participant applies and forgets T1 — then the
			// reordered original arrives.  The duplicate must be absorbed
			// idempotently at the same timestamp.
			t.Run("dup-decide-after-forget", func(t *testing.T) {
				a, b := newFake(10, true), newFake(25, true)
				ta, stopA := kind.make(t, "A", a)
				tb, stopB := kind.make(t, "B", b)
				defer stopA()
				defer stopB()
				fa := NewFaultTransport()
				trs := []Transport{fa.Wrap(ta), NewFaultTransport().Wrap(tb)}
				fa.ScriptReorder(ClassCommit, 2) // release after redelivery + T2 prepare

				dec, ts1, err := coordinator().RunTransports(context.Background(), "T1", trs)
				if err != nil || dec != Committed {
					t.Fatalf("T1: %v %v", dec, err)
				}
				// Redelivery path: the coordinator resends the unacked
				// decision; this copy passes through and is applied.
				if !trs[0].StartCommit(context.Background(), "T1", ts1, 500*time.Millisecond)() {
					t.Fatal("redelivered decide not acked")
				}
				if got, ok := a.committedTS("T1"); !ok || got != ts1 {
					t.Fatalf("redelivered decide committed at %d/%v, want %d", got, ok, ts1)
				}
				// Later traffic releases the reordered original — a
				// duplicate decide for a forgotten transaction.
				dec, _, err = coordinator().RunTransports(context.Background(), "T2", trs)
				if err != nil || dec != Committed {
					t.Fatalf("T2: %v %v", dec, err)
				}
				if fa.ReorderPending() != 0 {
					t.Fatalf("pending = %d, want 0", fa.ReorderPending())
				}
				if got := fa.Delivered(ClassCommit); got != 3 {
					t.Fatalf("delivered %d decides, want 3 (redelivery, T2, late dup)", got)
				}
				if got, ok := a.committedTS("T1"); !ok || got != ts1 {
					t.Fatalf("dup decide moved T1 to %d/%v, want %d", got, ok, ts1)
				}
			})
		})
	}
}

// Wrap derives per-round transports that share one controller's script
// and partition state — the shape a cluster needs when every commit round
// builds fresh transports but the fault plan is per shard.
func TestFaultWrapSharesState(t *testing.T) {
	a, b := newFake(10, true), newFake(25, true)
	ctl := NewFaultTransport()
	ctl.Script(ClassPrepare, DropRequest)

	round := func(tx histories.TxID) (Decision, histories.Timestamp, error) {
		// Fresh views each round, as Options.WrapTransport produces.
		va := ctl.Wrap(NewDirect("A", a))
		vb := NewDirect("B", b)
		return coordinator().RunTransports(context.Background(), tx, []Transport{va, vb})
	}

	if dec, _, _ := round("T1"); dec != Aborted {
		t.Fatal("T1 should abort: the shared script drops its prepare")
	}
	if len(a.prepared) != 0 {
		t.Fatal("dropped prepare reached the participant")
	}
	dec, ts, err := round("T2")
	if err != nil || dec != Committed {
		t.Fatalf("T2 through a fresh view: %v %v (script exhausted by T1's view)", dec, err)
	}
	if got, ok := a.committedTS("T2"); !ok || got != ts {
		t.Fatalf("T2 committed at %d/%v, want %d", got, ok, ts)
	}

	// Partition state is shared the same way, and Delivered aggregates
	// across views.
	ctl.SetPartitioned(true)
	if dec, _, _ := round("T3"); dec != Aborted {
		t.Fatal("T3 should abort across the shared partition")
	}
	ctl.SetPartitioned(false)
	if dec, _, err := round("T4"); err != nil || dec != Committed {
		t.Fatalf("T4 after heal: %v %v", dec, err)
	}
	if got := ctl.Delivered(ClassCommit); got != 2 {
		t.Fatalf("controller counted %d decides across views, want 2", got)
	}
}

// Held abort decisions redeliver too: a round that aborts with one site
// unreachable must eventually deliver the abort when the site heals, or
// the prepared branch would hold its locks forever.
func TestFaultHeldAbortDeliveredLate(t *testing.T) {
	a, _, fa, _, trs := faultPair()
	fa.Script(ClassPrepare, DropReply) // a prepares, coordinator sees it unreachable
	fa.Script(ClassAbort, Hold)        // ...and the abort is held

	dec, _, _ := coordinator().RunTransports(context.Background(), "T1", trs)
	if dec != Aborted {
		t.Fatalf("decision = %v, want aborted", dec)
	}
	if a.abortedCount() != 0 {
		t.Fatal("held abort delivered early")
	}
	if n := fa.ReleaseHeld(); n != 1 {
		t.Fatalf("released %d, want 1", n)
	}
	if a.abortedCount() != 1 {
		t.Fatalf("late abort count = %d, want 1", a.abortedCount())
	}
}
