package core

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"hybridcc/internal/adt"
	"hybridcc/internal/commitproto"
	"hybridcc/internal/depend"
	"hybridcc/internal/histories"
	"hybridcc/internal/tstamp"
	"hybridcc/internal/verify"
)

// These tests run the full distributed commit: transaction branches on
// independent Systems (sites), wrapped as commitproto participants behind
// each transport kind of dtx_crash_test.go, driven by a two-phase-commit
// coordinator that picks the timestamp — the paper's atomic commitment
// with piggybacked timestamp information, end to end.

// site bundles one System with a recorder for offline verification.
type site struct {
	sys *System
	rec *verify.Recorder
	acc *Object
}

func newSite(name string) *site {
	rec := verify.NewRecorder()
	sys := NewSystem(Options{Sink: rec, ExternalTimestamps: true, LockWait: 200 * time.Millisecond})
	acc := sys.NewObject(name, adt.NewAccount(), depend.SymmetricClosure(depend.AccountDependency()))
	return &site{sys: sys, rec: rec, acc: acc}
}

func fund(t *testing.T, s *site, amount int64) {
	t.Helper()
	tx := s.sys.Begin()
	if _, err := s.acc.Call(tx, adt.CreditInv(amount)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestDistributedCommitViaProtocol(t *testing.T) {
	overTransportKinds(t, testDistributedCommitViaProtocol)
}

func testDistributedCommitViaProtocol(t *testing.T, kind string) {
	a, b := newSite("accA"), newSite("accB")
	fund(t, a, 100)

	coord := commitproto.NewCoordinator(tstamp.NewSource(), time.Second)
	// The coordinator's clock must dominate both sites' clocks; prime it
	// by observing their current bounds via prepare itself (the protocol
	// gathers bounds, so nothing extra is needed).

	// Run several sequential transfers through the protocol.
	for i := 0; i < 5; i++ {
		brA, brB := a.sys.Begin(), b.sys.Begin()
		if res, err := a.acc.Call(brA, adt.DebitInv(10)); err != nil || res != adt.ResOk {
			t.Fatalf("debit: %q %v", res, err)
		}
		if _, err := b.acc.Call(brB, adt.CreditInv(10)); err != nil {
			t.Fatal(err)
		}
		dec, ts, err := runRound(context.Background(), kind, coord, brA.ID(), brA, brB)
		if err != nil {
			t.Fatal(err)
		}
		if dec != commitproto.Committed {
			t.Fatalf("round %d: decision %v", i, dec)
		}
		if ts <= 0 {
			t.Fatalf("round %d: timestamp %d", i, ts)
		}
	}

	if got := adt.AccountBalance(a.acc.CommittedState()); got != 50 {
		t.Errorf("site A balance = %d", got)
	}
	if got := adt.AccountBalance(b.acc.CommittedState()); got != 50 {
		t.Errorf("site B balance = %d", got)
	}
	for _, s := range []*site{a, b} {
		specs := histories.SpecMap{s.acc.Name(): adt.NewAccount()}
		if err := verify.CheckHybridAtomic(s.rec.History(), specs); err != nil {
			t.Errorf("site %s: %v", s.acc.Name(), err)
		}
	}
}

func TestDistributedAbortOnVeto(t *testing.T) { overTransportKinds(t, testDistributedAbortOnVeto) }

func testDistributedAbortOnVeto(t *testing.T, kind string) {
	a, b := newSite("accA"), newSite("accB")
	fund(t, a, 100)

	brA, brB := a.sys.Begin(), b.sys.Begin()
	if _, err := a.acc.Call(brA, adt.DebitInv(10)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.acc.Call(brB, adt.CreditInv(10)); err != nil {
		t.Fatal(err)
	}
	// Complete branch B behind the coordinator's back so its Prepare
	// vetoes; the whole transaction must abort at both sites.
	if err := brB.Abort(); err != nil {
		t.Fatal(err)
	}
	coord := commitproto.NewCoordinator(tstamp.NewSource(), time.Second)
	dec, _, err := runRound(context.Background(), kind, coord, "gtx", brA, brB)
	if err != nil {
		t.Fatal(err)
	}
	if dec != commitproto.Aborted {
		t.Fatalf("decision = %v, want aborted", dec)
	}
	if got := adt.AccountBalance(a.acc.CommittedState()); got != 100 {
		t.Errorf("site A balance = %d, want 100 (transfer rolled back)", got)
	}
	if got := adt.AccountBalance(b.acc.CommittedState()); got != 0 {
		t.Errorf("site B balance = %d, want 0", got)
	}
}

func TestDistributedCrashAborts(t *testing.T) { overTransportKinds(t, testDistributedCrashAborts) }

func testDistributedCrashAborts(t *testing.T, kind string) {
	a, b := newSite("accA"), newSite("accB")
	fund(t, a, 100)

	brA, brB := a.sys.Begin(), b.sys.Begin()
	if _, err := a.acc.Call(brA, adt.DebitInv(10)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.acc.Call(brB, adt.CreditInv(10)); err != nil {
		t.Fatal(err)
	}
	ta := makeTransport(kind, "siteA", TxParticipant{Tx: brA})
	tb := makeTransport(kind, "siteB", TxParticipant{Tx: brB})
	tb.crash() // site B is unreachable

	coord := commitproto.NewCoordinator(tstamp.NewSource(), 50*time.Millisecond)
	dec, _, err := coord.RunTransports(context.Background(), "gtx", []commitproto.Transport{ta.tr, tb.tr})
	if dec != commitproto.Aborted {
		t.Fatalf("decision = %v, want aborted", dec)
	}
	if err == nil || !strings.Contains(err.Error(), "unreachable") {
		t.Errorf("err = %v, want unreachable report", err)
	}
	// Site A's branch was aborted by the protocol.
	if got := adt.AccountBalance(a.acc.CommittedState()); got != 100 {
		t.Errorf("site A balance = %d, want 100", got)
	}
}

func TestDistributedConcurrentTransfers(t *testing.T) {
	overTransportKinds(t, testDistributedConcurrentTransfers)
}

func testDistributedConcurrentTransfers(t *testing.T, kind string) {
	// Many concurrent cross-site transfers through the protocol; both
	// sites' histories must verify and money must be conserved.
	a, b := newSite("accA"), newSite("accB")
	fund(t, a, 1_000)
	fund(t, b, 1_000)

	coordClock := tstamp.NewSource()
	var wg sync.WaitGroup
	const transfers = 20
	for i := 0; i < transfers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			src, dst := a, b
			if i%2 == 1 {
				src, dst = b, a
			}
			for attempt := 0; attempt < 10; attempt++ {
				brS, brD := src.sys.Begin(), dst.sys.Begin()
				res, err := src.acc.Call(brS, adt.DebitInv(5))
				if err != nil || res != adt.ResOk {
					_ = brS.Abort()
					_ = brD.Abort()
					continue
				}
				if _, err := dst.acc.Call(brD, adt.CreditInv(5)); err != nil {
					_ = brS.Abort()
					_ = brD.Abort()
					continue
				}
				coord := commitproto.NewCoordinator(coordClock, time.Second)
				dec, _, err := runRound(context.Background(), kind, coord, brS.ID(), brS, brD)
				if err == nil && dec == commitproto.Committed {
					return
				}
			}
			t.Errorf("transfer %d never committed", i)
		}(i)
	}
	wg.Wait()

	total := adt.AccountBalance(a.acc.CommittedState()) + adt.AccountBalance(b.acc.CommittedState())
	if total != 2_000 {
		t.Errorf("money not conserved: total = %d", total)
	}
	for _, s := range []*site{a, b} {
		specs := histories.SpecMap{s.acc.Name(): adt.NewAccount()}
		if err := verify.CheckHybridAtomic(s.rec.History(), specs); err != nil {
			t.Errorf("site %s: %v", s.acc.Name(), err)
		}
	}
}
