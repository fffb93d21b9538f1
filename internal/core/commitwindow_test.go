package core

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hybridcc/internal/adt"
	"hybridcc/internal/depend"
	"hybridcc/internal/histories"
)

// TestCommitPublishesTimestampAtomically is the regression test for the
// commit-window timestamp race: Tx.Commit used to publish
// status = txCommitted before assigning t.ts, so a concurrent Timestamp()
// could observe (0, true) — an impossible public answer, since real
// timestamps start at 1.  The watcher goroutine spins on Timestamp() while
// the main goroutine commits; touching several objects widens the window
// (bound gathering takes per-object locks between the status change and
// the timestamp assignment under the old ordering).
func TestCommitPublishesTimestampAtomically(t *testing.T) {
	// The watcher must actually run inside the commit window, which with a
	// single P it never does (the committer takes no scheduling point
	// between publishing the status and assigning the timestamp).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))

	sys := NewSystem(Options{})
	conflict := depend.SymmetricClosure(depend.CounterDependency())
	const objects = 4
	objs := make([]*Object, objects)
	for i := range objs {
		objs[i] = sys.NewObject(fmt.Sprintf("c%d", i), adt.NewCounter(), conflict)
	}

	var torn atomic.Int64
	for iter := 0; iter < 300; iter++ {
		tx := sys.Begin()
		for _, o := range objs {
			if _, err := o.Call(tx, adt.IncInv(1)); err != nil {
				t.Fatalf("iteration %d: %v", iter, err)
			}
		}
		ready := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			close(ready)
			for {
				ts, committed := tx.Timestamp()
				if committed {
					if ts == 0 {
						torn.Add(1)
					}
					return
				}
				runtime.Gosched()
			}
		}()
		<-ready
		if err := tx.Commit(); err != nil {
			t.Fatalf("iteration %d: commit: %v", iter, err)
		}
		wg.Wait()
		if n := torn.Load(); n > 0 {
			t.Fatalf("Timestamp() observed (0, true) inside the commit window (iteration %d)", iter)
		}
	}
}

// TestCommitWindowAbortAndCallRejected pins the committing state's
// semantics: once Commit has started, concurrent Abort and Call fail with
// ErrTxDone even before the timestamp is published.
func TestCommitWindowAbortAndCallRejected(t *testing.T) {
	sys := NewSystem(Options{})
	obj := sys.NewObject("c", adt.NewCounter(), depend.SymmetricClosure(depend.CounterDependency()))
	tx := sys.Begin()
	if _, err := obj.Call(tx, adt.IncInv(1)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != ErrTxDone {
		t.Errorf("Abort after Commit = %v, want ErrTxDone", err)
	}
	if _, err := obj.Call(tx, adt.IncInv(1)); err != ErrTxDone {
		t.Errorf("Call after Commit = %v, want ErrTxDone", err)
	}
}

// TestReaderWaitsOutCommittingWriter pins the reader side of the commit
// window: a writer inside Commit that has not yet published its timestamp
// (txCommitting) must block readers — its timestamp may already be drawn
// from the clock, possibly below a reader that begins right after the
// draw.  Before the txCommitting state existed this was masked by the
// timestamp race itself: Timestamp() returned (0, true) mid-window, and
// 0 < reader-ts made readers wait by accident.
func TestReaderWaitsOutCommittingWriter(t *testing.T) {
	sys := NewSystem(Options{})
	obj := sys.NewObject("c", adt.NewCounter(), depend.SymmetricClosure(depend.CounterDependency()))
	tx := sys.Begin()
	if _, err := obj.Call(tx, adt.IncInv(1)); err != nil {
		t.Fatal(err)
	}

	// Freeze the transaction mid-commit-window.
	tx.mu.Lock()
	tx.status = txCommitting
	tx.mu.Unlock()
	obj.mu.Lock()
	blocker := obj.blockingWriterLocked(100, false)
	obj.mu.Unlock()
	if blocker != tx.id {
		t.Fatalf("blockingWriterLocked = %q, want %q (committing writer must block readers)", blocker, tx.id)
	}

	// Once the commit completes, the writer serializes at its (later)
	// timestamp and stops blocking earlier readers; a reader above it
	// keeps observing it through the committed tail instead.
	tx.mu.Lock()
	tx.status = txActive
	tx.mu.Unlock()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	obj.mu.Lock()
	blocker = obj.blockingWriterLocked(100, false)
	obj.mu.Unlock()
	if blocker != "" {
		t.Fatalf("blockingWriterLocked after commit = %q, want none", blocker)
	}
	if v := adt.CounterValue(obj.CommittedState()); v != 1 {
		t.Fatalf("committed value = %d, want 1", v)
	}
}

// TestUnforgottenSortedUnderExternalCommits pins the sorted-by-timestamp
// invariant of the unforgotten slice — the invariant that lets
// snapshotLocked stop at the first too-late entry — under the one path
// that inserts mid-slice: externally timestamped commits arriving out of
// timestamp order.  It also pins that the committed tail respects
// timestamp order, not arrival order (the Thomas-write-rule scenario).
func TestUnforgottenSortedUnderExternalCommits(t *testing.T) {
	sys := NewSystem(Options{ExternalTimestamps: true, DisableCompaction: true})
	obj := sys.NewObject("f", adt.NewFile(), depend.SymmetricClosure(depend.FileDependency()))

	// Three writers of distinct values; writes never conflict under the
	// hybrid relation.  Commit arrival order 30, 10, 20 forces two
	// mid-slice inserts.
	txs := make([]*Tx, 3)
	for i := range txs {
		txs[i] = sys.Begin()
		if _, err := obj.Call(txs[i], adt.FileWriteInv(int64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		i  int
		ts int64
	}{{2, 30}, {0, 10}, {1, 20}} {
		if err := txs[c.i].CommitAt(histories.Timestamp(c.ts)); err != nil {
			t.Fatalf("CommitAt(%d): %v", c.ts, err)
		}
	}

	obj.mu.Lock()
	sorted := sort.SliceIsSorted(obj.unforgotten, func(i, j int) bool {
		return obj.unforgotten[i].ts < obj.unforgotten[j].ts
	})
	n := len(obj.unforgotten)
	// The snapshot as of ts reflects exactly the earlier commits, and the
	// scan must terminate early on the sorted slice.
	at15 := adt.FileValue(obj.snapshotLocked(15))
	at25 := adt.FileValue(obj.snapshotLocked(25))
	at30 := adt.FileValue(obj.snapshotLocked(30))
	obj.mu.Unlock()

	if !sorted || n != 3 {
		t.Fatalf("unforgotten not sorted (n=%d)", n)
	}
	if at15 != 1 || at25 != 2 || at30 != 3 {
		t.Errorf("snapshots = %d, %d, %d at ts 15, 25, 30; want 1, 2, 3", at15, at25, at30)
	}
	// Timestamp order, not arrival order, decides the committed value.
	if v := adt.FileValue(obj.CommittedState()); v != 3 {
		t.Errorf("committed value = %d, want 3 (latest timestamp wins)", v)
	}
}

// TestViewCacheConcurrentStress hammers one object's incremental view
// cache with concurrent grants, commits, aborts, horizon folds, and
// lock-free snapshot reads; run under -race it checks the cache
// bookkeeping, and the final committed value checks that no increment was
// lost or double-applied.
func TestViewCacheConcurrentStress(t *testing.T) {
	sys := NewSystem(Options{LockWait: 200 * time.Millisecond})
	obj := sys.NewObject("ctr", adt.NewCounter(), depend.SymmetricClosure(depend.CounterDependency()))

	const writers = 6
	const txPerWriter = 40
	const opsPerTx = 5
	var committed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; n < txPerWriter; n++ {
				tx := sys.Begin()
				sum := int64(0)
				ok := true
				for i := 0; i < opsPerTx; i++ {
					amt := int64(w%3 + 1)
					if _, err := obj.Call(tx, adt.IncInv(amt)); err != nil {
						ok = false
						break
					}
					sum += amt
				}
				// A third of the successful transactions abort, exercising
				// lock release and horizon advancement mid-stream.
				if !ok || n%3 == 0 {
					_ = tx.Abort()
					continue
				}
				if err := tx.Commit(); err == nil {
					committed.Add(sum)
				}
			}
		}(w)
	}
	// Concurrent readers take start-timestamped snapshots; they acquire no
	// locks but pin the compaction horizon, interleaving folds with reads.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rt := sys.BeginReadOnly()
				_, _ = obj.ReadCall(rt, adt.CtrReadInv())
				_ = rt.Commit()
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	if v := adt.CounterValue(obj.CommittedState()); v != committed.Load() {
		t.Fatalf("committed value = %d, want %d (sum of committed increments)", v, committed.Load())
	}
}
