package hybridcc

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// The public pooling contract: Atomically's transaction handles are
// recycled, so a handle leaked out of the callback is dead — it must fail
// with ErrTxDone, never operate on a later transaction that reuses the
// struct.

func TestAtomicallyLeakedHandleIsDead(t *testing.T) {
	sys := NewSystem()
	acc, err := sys.NewAccount("acc")
	if err != nil {
		t.Fatal(err)
	}
	var leaked *Tx
	if err := sys.Atomically(func(tx *Tx) error {
		leaked = tx
		return acc.Credit(tx, 10)
	}); err != nil {
		t.Fatal(err)
	}

	if err := acc.Credit(leaked, 1); !errors.Is(err, ErrTxDone) {
		t.Errorf("Credit through leaked handle = %v, want ErrTxDone", err)
	}
	if err := leaked.Commit(); !errors.Is(err, ErrTxDone) {
		t.Errorf("Commit through leaked handle = %v, want ErrTxDone", err)
	}

	// The pool is intact: later transactions see none of the above.
	if err := sys.Atomically(func(tx *Tx) error { return acc.Credit(tx, 5) }); err != nil {
		t.Fatal(err)
	}
	if bal := acc.CommittedBalance(); bal != 15 {
		t.Errorf("balance = %d, want 15", bal)
	}
}

// TestAtomicallyPanicReleasesLocks: a panic unwinding out of Atomically
// must abort the attempt.  Successful debits conflict (Table V), so a Debit
// lock left behind would make the next transaction's Debit wait out its
// whole lock wait and time out — for the life of the process.
func TestAtomicallyPanicReleasesLocks(t *testing.T) {
	sys := NewSystem(WithLockWait(50 * time.Millisecond))
	acc := Must(sys.NewAccount("acc"))
	if err := sys.Atomically(func(tx *Tx) error { return acc.Credit(tx, 10) }); err != nil {
		t.Fatal(err)
	}
	got := recoverFrom(func() {
		_ = sys.Atomically(func(tx *Tx) error {
			if ok, err := acc.Debit(tx, 1); err != nil || !ok {
				t.Errorf("debit = %v, %v", ok, err)
			}
			panic("boom")
		})
	})
	if got != "boom" {
		t.Fatalf("recovered %v: Atomically must let the callback's panic through", got)
	}
	if st := sys.Stats(); st.Aborted != 1 {
		t.Errorf("aborted = %d, want 1: the panicked attempt", st.Aborted)
	}
	assertDebitGranted(t, sys.Begin(), acc, func() int64 { return sys.Stats().Waits })
}

func TestClusterAtomicallyPanicReleasesLocks(t *testing.T) {
	cl, err := NewCluster(2, WithLockWait(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	acc := Must(cl.NewAccount("acc"))
	if err := cl.Atomically(func(tx *DTx) error { return acc.Credit(tx, 10) }); err != nil {
		t.Fatal(err)
	}
	got := recoverFrom(func() {
		_ = cl.Atomically(func(tx *DTx) error {
			if ok, err := acc.Debit(tx, 1); err != nil || !ok {
				t.Errorf("debit = %v, %v", ok, err)
			}
			panic("boom")
		})
	})
	if got != "boom" {
		t.Fatalf("recovered %v: Atomically must let the callback's panic through", got)
	}
	assertDebitGranted(t, cl.Begin(), acc, func() int64 { return cl.Stats().Total.Waits })
}

// assertDebitGranted debits acc in tx — a transaction begun after the
// panicked attempt unwound — and requires the lock at once: no wait, and
// once tx has aborted no lock record left at the object.
func assertDebitGranted(t *testing.T, tx interface {
	Txn
	Abort() error
}, acc *Account, waits func() int64) {
	t.Helper()
	if ok, err := acc.Debit(tx, 1); err != nil || !ok {
		t.Errorf("debit after a panicked attempt = %v, %v (its lock leaked?)", ok, err)
	}
	if w := waits(); w != 0 {
		t.Errorf("waits = %d, want 0: the second debit must be granted without waiting", w)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if n := acc.obj.Stats().Active; n != 0 {
		t.Errorf("active lock records = %d, want 0", n)
	}
}

// TestGroupCommitPublicOption drives the deprecated WithGroupCommit through
// the public API under concurrency and verifies the recorded history: the
// option is a no-op, so no commit is batched.
func TestGroupCommitPublicOption(t *testing.T) {
	rec := NewRecorder()
	sys := NewSystem(WithGroupCommit(), WithRecorder(rec))
	acc, err := sys.NewAccount("acc")
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	const rounds = 40
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := sys.Atomically(func(tx *Tx) error {
					return acc.Credit(tx, 1)
				}); err != nil {
					t.Errorf("atomically: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()

	if err := sys.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
	if bal := acc.CommittedBalance(); bal != workers*rounds {
		t.Errorf("balance = %d, want %d", bal, workers*rounds)
	}
	if st := sys.Stats(); st.GroupBatches != 0 || st.GroupBatchTxs != 0 {
		t.Errorf("the deprecated option batched commits: batches=%d txs=%d", st.GroupBatches, st.GroupBatchTxs)
	}
}
