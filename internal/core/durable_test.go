package core

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"hybridcc/internal/adt"
	"hybridcc/internal/depend"
	"hybridcc/internal/histories"
)

// Crash-point tests for the durable commit pipeline: every test drives the
// real commit paths against a real log directory, kills the log at an
// injected crash point (wal.Log.Crash == process death: buffered bytes are
// gone, the fd is closed), reopens, and checks exactly the right
// transactions survived.

func openDurable(t *testing.T, dir string) *System {
	t.Helper()
	s, err := OpenSystem(Options{
		LockWait:   250 * time.Millisecond,
		Durability: &Durability{Dir: dir, Sync: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func accountOn(s *System) *Object {
	return s.NewObject("acc", adt.NewAccount(), depend.SymmetricClosure(depend.AccountDependency()))
}

// credit commits one credit transaction and returns its id.
func credit(t *testing.T, s *System, acc *Object, amount int64) histories.TxID {
	t.Helper()
	tx := s.Begin()
	if _, err := acc.Call(tx, adt.CreditInv(amount)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return tx.ID()
}

func TestDurableCommitRecovered(t *testing.T) {
	dir := t.TempDir()
	s := openDurable(t, dir)
	if err := s.FinishRecovery(); err != nil {
		t.Fatal(err)
	}
	acc := accountOn(s)
	var lastID histories.TxID
	for i := 0; i < 5; i++ {
		lastID = credit(t, s, acc, 10)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openDurable(t, dir)
	acc2 := accountOn(s2)
	if err := s2.FinishRecovery(); err != nil {
		t.Fatal(err)
	}
	if got := adt.AccountBalance(acc2.CommittedState()); got != 50 {
		t.Fatalf("recovered balance = %d, want 50", got)
	}
	if got := s2.Stats().Recovered; got != 5 {
		t.Fatalf("Recovered = %d, want 5", got)
	}
	// The identifier counter advanced past every recovered transaction: a
	// fresh commit must not reuse a logged id.
	id := credit(t, s2, acc2, 1)
	if id == lastID {
		t.Fatalf("recovered system reissued transaction id %s", id)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	// And the post-recovery commit is itself durable.
	s3 := openDurable(t, dir)
	acc3 := accountOn(s3)
	if err := s3.FinishRecovery(); err != nil {
		t.Fatal(err)
	}
	if got := adt.AccountBalance(acc3.CommittedState()); got != 51 {
		t.Fatalf("second recovery balance = %d, want 51", got)
	}
	s3.Close()
}

// TestConcurrentCommitDurableRecovery: concurrent commits, hard-stop (no
// Close — synced records must carry everything), reopen, and every
// acknowledged commit is back.  Concurrent committers share fsyncs, so
// there are never more fsyncs than appends.
func TestConcurrentCommitDurableRecovery(t *testing.T) {
	dir := t.TempDir()
	s := openDurable(t, dir)
	if err := s.FinishRecovery(); err != nil {
		t.Fatal(err)
	}
	acc := accountOn(s)

	const workers, per = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tx := s.Begin()
				if _, err := acc.Call(tx, adt.CreditInv(1)); err != nil {
					t.Error(err)
					_ = tx.Abort()
					return
				}
				if err := tx.Commit(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	st := s.Stats()
	if st.LogAppends != workers*per {
		t.Fatalf("LogAppends = %d, want %d", st.LogAppends, workers*per)
	}
	if st.LogFsyncs > st.LogAppends {
		t.Fatalf("LogFsyncs = %d > LogAppends = %d", st.LogFsyncs, st.LogAppends)
	}
	t.Logf("fsyncs/commit = %d/%d = %.3f", st.LogFsyncs, st.Committed, float64(st.LogFsyncs)/float64(st.Committed))
	s.CrashLog() // hard stop: no Close, only what fsync promised

	s2 := openDurable(t, dir)
	acc2 := accountOn(s2)
	if err := s2.FinishRecovery(); err != nil {
		t.Fatal(err)
	}
	if got := adt.AccountBalance(acc2.CommittedState()); got != workers*per {
		t.Fatalf("recovered balance = %d, want %d", got, workers*per)
	}
	s2.Close()
}

// TestPreparedBranchRecovery: a branch that voted yes (Prepare logged,
// synced) and died before the decision is recovered as pending; resolving
// it with the coordinator's decision commits it durably, abandoning it
// presumes abort.  This is the participant half of 2PC recovery — the
// cluster tests drive the full protocol.
func TestPreparedBranchRecovery(t *testing.T) {
	for _, resolve := range []bool{true, false} {
		dir := t.TempDir()
		s, err := OpenSystem(Options{
			LockWait:           250 * time.Millisecond,
			ExternalTimestamps: true,
			Durability:         &Durability{Dir: dir, Sync: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.FinishRecovery(); err != nil {
			t.Fatal(err)
		}
		acc := accountOn(s)

		// A committed baseline below the prepared branch.
		tx := s.BeginBranch(nil, "X1")
		if _, err := acc.Call(tx, adt.CreditInv(100)); err != nil {
			t.Fatal(err)
		}
		if err := tx.CommitAt(10); err != nil {
			t.Fatal(err)
		}

		br := s.BeginBranch(nil, "X2")
		if _, err := acc.Call(br, adt.CreditInv(5)); err != nil {
			t.Fatal(err)
		}
		if _, err := br.Prepare(); err != nil {
			t.Fatal(err)
		}
		s.CrashLog() // dies prepared, decision never arrives

		s2, err := OpenSystem(Options{
			LockWait:           250 * time.Millisecond,
			ExternalTimestamps: true,
			Durability:         &Durability{Dir: dir, Sync: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		acc2 := accountOn(s2)
		pend := s2.RecoveredPending()
		if len(pend) != 1 || pend[0].ID != "X2" {
			t.Fatalf("pending = %+v, want [X2]", pend)
		}
		want := int64(100)
		if resolve {
			if err := s2.ResolvePending("X2", 20); err != nil {
				t.Fatal(err)
			}
			want = 105
		}
		if err := s2.FinishRecovery(); err != nil {
			t.Fatal(err)
		}
		if got := adt.AccountBalance(acc2.CommittedState()); got != want {
			t.Fatalf("resolve=%v: recovered balance = %d, want %d", resolve, got, want)
		}
		if err := s2.Close(); err != nil {
			t.Fatal(err)
		}

		// The resolution itself is durable: a third incarnation needs no
		// ResolvePending call to reach the same state.
		s3, err := OpenSystem(Options{
			LockWait:           250 * time.Millisecond,
			ExternalTimestamps: true,
			Durability:         &Durability{Dir: dir, Sync: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		acc3 := accountOn(s3)
		if n := len(s3.RecoveredPending()); n != 0 {
			t.Fatalf("resolve=%v: %d pending after resolution was logged", resolve, n)
		}
		if err := s3.FinishRecovery(); err != nil {
			t.Fatal(err)
		}
		if got := adt.AccountBalance(acc3.CommittedState()); got != want {
			t.Fatalf("resolve=%v: third recovery balance = %d, want %d", resolve, got, want)
		}
		s3.Close()
	}
}

// TestUnregisteredRecoveredObject: replay skips log records for objects no
// one registered, and a late registration of such a name must fail loudly
// (panic at the core layer; the public layer converts it to an error).
func TestUnregisteredRecoveredObject(t *testing.T) {
	dir := t.TempDir()
	s := openDurable(t, dir)
	if err := s.FinishRecovery(); err != nil {
		t.Fatal(err)
	}
	acc := accountOn(s)
	credit(t, s, acc, 42)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openDurable(t, dir)
	if err := s2.FinishRecovery(); err != nil { // nobody registered "acc"
		t.Fatal(err)
	}
	if !s2.HasUnclaimedRecovery("acc") {
		t.Fatal("skipped object not marked unclaimed")
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("late registration of a recovered object did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "acc") {
			t.Fatalf("unexpected panic: %v", r)
		}
		s2.Close()
	}()
	accountOn(s2)
}

// TestPrepareIdempotentLogging: a repeat Prepare of a branch whose yes
// vote is already durable must not append a second prepared record — and,
// above all, must not unfreeze the branch when a redundant append would
// have failed: the coordinator may already hold the bound the freeze
// protects, so new operations must stay fenced off whatever the log does.
func TestPrepareIdempotentLogging(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSystem(Options{
		LockWait:           250 * time.Millisecond,
		ExternalTimestamps: true,
		Durability:         &Durability{Dir: dir, Sync: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.FinishRecovery(); err != nil {
		t.Fatal(err)
	}
	acc := accountOn(s)
	br := s.BeginBranch(nil, "X1")
	if _, err := acc.Call(br, adt.CreditInv(5)); err != nil {
		t.Fatal(err)
	}
	lower, err := br.Prepare()
	if err != nil {
		t.Fatal(err)
	}
	appends := s.LogStats().Appends
	again, err := br.Prepare()
	if err != nil || again != lower {
		t.Fatalf("repeat Prepare = (%d, %v), want (%d, nil)", again, err, lower)
	}
	if got := s.LogStats().Appends; got != appends {
		t.Fatalf("repeat Prepare re-logged the vote: %d appends, want %d", got, appends)
	}
	// Even over a dead log the repeat Prepare succeeds (nothing to log) and
	// the branch stays frozen.
	s.CrashLog()
	if _, err := br.Prepare(); err != nil {
		t.Fatalf("repeat Prepare after log death: %v", err)
	}
	if _, err := acc.Call(br, adt.CreditInv(1)); !errors.Is(err, ErrTxBusy) {
		t.Fatalf("prepared branch accepted an operation: %v", err)
	}
}
