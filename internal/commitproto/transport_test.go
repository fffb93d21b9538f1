package commitproto

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hybridcc/internal/histories"
)

// The protocol must behave identically over the in-process transport bare,
// behind the fault-injection wrapper (with an empty script: a transparent
// fault view must change nothing), and over a transport whose replies
// arrive later than its Start returns, bare and wrapped — so the core
// protocol suite runs against each.  Lost, delayed, duplicated and
// reordered messages are scripted in fault_test.go.

// transportKinds enumerates the factory shapes under test.  crash makes
// the site unreachable from then on.
var transportKinds = []struct {
	name string
	make func(t *testing.T, name string, p Participant) (tr Transport, crash func())
}{
	{"direct", func(_ *testing.T, name string, p Participant) (Transport, func()) {
		d := NewDirect(name, p)
		return d, d.Crash
	}},
	{"fault(direct)", func(_ *testing.T, name string, p Participant) (Transport, func()) {
		d := NewDirect(name, p)
		return NewFaultTransport().Wrap(d), d.Crash
	}},
	{"scatter(direct)", func(t *testing.T, name string, p Participant) (Transport, func()) {
		s := newScatterDirect(t, name, p)
		return s, s.Crash
	}},
	{"fault(scatter(direct))", func(t *testing.T, name string, p Participant) (Transport, func()) {
		s := newScatterDirect(t, name, p)
		return NewFaultTransport().Wrap(s), s.Crash
	}},
}

func TestTransportCommitAllYes(t *testing.T) {
	for _, kind := range transportKinds {
		t.Run(kind.name, func(t *testing.T) {
			a, b := newFake(10, true), newFake(25, true)
			ta, _ := kind.make(t, "A", a)
			tb, _ := kind.make(t, "B", b)

			dec, ts, err := coordinator().RunTransports(context.Background(), "T1", []Transport{ta, tb})
			if err != nil {
				t.Fatal(err)
			}
			if dec != Committed {
				t.Fatalf("decision = %v", dec)
			}
			if ts <= 25 {
				t.Errorf("timestamp %d must exceed the max lower bound 25", ts)
			}
			for _, f := range []*fakeParticipant{a, b} {
				got, ok := f.committedTS("T1")
				if !ok || got != ts {
					t.Errorf("participant commit ts = %d ok=%v, want %d", got, ok, ts)
				}
			}
		})
	}
}

func TestTransportAbortOnNoVote(t *testing.T) {
	for _, kind := range transportKinds {
		t.Run(kind.name, func(t *testing.T) {
			a, b := newFake(0, true), newFake(0, false)
			ta, _ := kind.make(t, "A", a)
			tb, _ := kind.make(t, "B", b)

			dec, _, err := coordinator().RunTransports(context.Background(), "T2", []Transport{ta, tb})
			if err != nil {
				t.Fatal(err)
			}
			if dec != Aborted {
				t.Fatalf("decision = %v, want aborted", dec)
			}
			if _, ok := a.committedTS("T2"); ok {
				t.Error("participant committed despite abort decision")
			}
			if a.abortedCount() == 0 || b.abortedCount() == 0 {
				t.Error("abort must reach all reachable participants")
			}
		})
	}
}

func TestTransportAbortOnCrashBeforeVote(t *testing.T) {
	for _, kind := range transportKinds {
		t.Run(kind.name, func(t *testing.T) {
			a, b := newFake(0, true), newFake(0, true)
			ta, _ := kind.make(t, "A", a)
			tb, crashB := kind.make(t, "B", b)
			crashB()

			dec, _, err := coordinator().RunTransports(context.Background(), "T3", []Transport{ta, tb})
			if dec != Committed && err == nil {
				t.Error("crash must be reported as an error")
			}
			if dec != Aborted {
				t.Fatalf("decision = %v, want aborted", dec)
			}
			if err == nil || !strings.Contains(err.Error(), "unreachable") {
				t.Errorf("err = %v, want unreachable report naming the site", err)
			}
			if _, ok := a.committedTS("T3"); ok {
				t.Error("live participant committed despite crashed peer")
			}
			if b.abortedCount() != 0 {
				t.Error("crashed transport delivered an abort to its participant")
			}
		})
	}
}

func TestTransportCancelledBeforePrepareAborts(t *testing.T) {
	for _, kind := range transportKinds {
		t.Run(kind.name, func(t *testing.T) {
			a, b := newFake(1, true), newFake(2, true)
			ta, _ := kind.make(t, "A", a)
			tb, _ := kind.make(t, "B", b)

			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			dec, _, err := coordinator().RunTransports(ctx, "T4", []Transport{ta, tb})
			if dec != Aborted {
				t.Fatalf("decision = %v, want aborted", dec)
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if _, ok := a.committedTS("T4"); ok {
				t.Error("participant committed a cancelled round")
			}
			// Aborts are delivered outside ctx so no yes-voter is left
			// prepared (here nobody was even prepared; the delivery must
			// still go out).
			if a.abortedCount() == 0 || b.abortedCount() == 0 {
				t.Error("aborts must be delivered despite cancellation")
			}
		})
	}
}

// TestTransportWideFanOut runs a round wider than the coordinator's stack
// buffers (>4 participants): all sites must vote and all must receive the
// one decision timestamp.
func TestTransportWideFanOut(t *testing.T) {
	for _, kind := range transportKinds {
		t.Run(kind.name, func(t *testing.T) {
			const sites = 9
			fakes := make([]*fakeParticipant, sites)
			trs := make([]Transport, sites)
			for i := range fakes {
				fakes[i] = newFake(histories.Timestamp(i*3), true)
				trs[i], _ = kind.make(t, fmt.Sprintf("S%d", i), fakes[i])
			}
			dec, ts, err := coordinator().RunTransports(context.Background(), "T5", trs)
			if err != nil || dec != Committed {
				t.Fatalf("round: %v %v", dec, err)
			}
			if ts <= histories.Timestamp((sites-1)*3) {
				t.Errorf("timestamp %d must exceed the max lower bound %d", ts, (sites-1)*3)
			}
			for i, f := range fakes {
				if got, ok := f.committedTS("T5"); !ok || got != ts {
					t.Errorf("site %d: commit ts = (%d,%v), want (%d,true)", i, got, ok, ts)
				}
			}
		})
	}
}

// TestTransportConcurrentRounds runs many wide rounds through ONE
// coordinator concurrently, each on its own goroutine: every round must
// still get a distinct timestamp and a consistent decision.
func TestTransportConcurrentRounds(t *testing.T) {
	for _, kind := range transportKinds {
		t.Run(kind.name, func(t *testing.T) {
			coord := coordinator()
			const rounds = 12
			const sites = 5
			out := make(chan histories.Timestamp, rounds)
			var wg sync.WaitGroup
			for r := 0; r < rounds; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					trs := make([]Transport, sites)
					for i := range trs {
						trs[i], _ = kind.make(t, fmt.Sprintf("R%dS%d", r, i), newFake(histories.Timestamp(r), true))
					}
					dec, ts, err := coord.RunTransports(context.Background(),
						histories.TxID(fmt.Sprintf("T%d", r)), trs)
					if err != nil || dec != Committed {
						t.Errorf("round %d: %v %v", r, dec, err)
						out <- 0
						return
					}
					out <- ts
				}(r)
			}
			wg.Wait()
			close(out)
			seen := make(map[histories.Timestamp]bool)
			for ts := range out {
				if ts == 0 {
					continue
				}
				if seen[ts] {
					t.Fatalf("timestamp %d issued to two concurrent rounds", ts)
				}
				seen[ts] = true
			}
		})
	}
}

// droppingParticipant swallows commit decisions until deliver is set,
// simulating a site that crashed after voting yes and later recovers.
type droppingParticipant struct {
	inner   *fakeParticipant
	deliver atomic.Bool
}

func (d *droppingParticipant) Prepare(tx histories.TxID) (histories.Timestamp, bool) {
	return d.inner.Prepare(tx)
}

func (d *droppingParticipant) Commit(tx histories.TxID, ts histories.Timestamp) {
	if d.deliver.Load() {
		d.inner.Commit(tx, ts)
	}
}

func (d *droppingParticipant) Abort(tx histories.TxID) { d.inner.Abort(tx) }

// TestDirectTransportLateDecisionDelivery pins the lifecycle rule the seam
// exists for: a participant that missed the decision (crash after voting,
// modelled by a decision-dropping participant) can have it re-applied
// through the SAME transport after RunTransports returned — there is no
// per-round teardown that could eat the recovery delivery.
func TestDirectTransportLateDecisionDelivery(t *testing.T) {
	dropped := newFake(3, true)
	drop := &droppingParticipant{inner: dropped}
	live := newFake(4, true)
	td := NewDirect("drop", drop)
	tl := NewDirect("live", live)

	dec, ts, err := coordinator().RunTransports(context.Background(), "T1", []Transport{td, tl})
	if err != nil || dec != Committed {
		t.Fatalf("round: %v %v", dec, err)
	}
	if _, ok := dropped.committedTS("T1"); ok {
		t.Fatal("dropping participant saw the decision it was meant to lose")
	}
	// Recovery: re-deliver through the still-live transport.
	drop.deliver.Store(true)
	if !td.StartCommit(context.Background(), "T1", ts, time.Second)() {
		t.Fatal("recovery delivery failed on a live direct transport")
	}
	if got, ok := dropped.committedTS("T1"); !ok || got != ts {
		t.Fatalf("recovered commit ts = (%d,%v), want (%d,true)", got, ok, ts)
	}
}
