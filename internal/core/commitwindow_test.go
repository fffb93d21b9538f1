package core

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"hybridcc/internal/adt"
	"hybridcc/internal/depend"
	"hybridcc/internal/histories"
	"hybridcc/internal/verify"
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
	var ev []pendingEvent
	obj.mu.Lock()
	blocked := obj.mergeBelowLocked(100, &ev)
	obj.mu.Unlock()
	if !blocked {
		t.Fatalf("mergeBelowLocked = false, want true (committing writer must block readers)")
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
	blocked = obj.mergeBelowLocked(100, &ev)
	obj.mu.Unlock()
	if blocked {
		t.Fatalf("mergeBelowLocked after commit = true, want false")
	}
	if v := adt.CounterValue(obj.CommittedState()); v != 1 {
		t.Fatalf("committed value = %d, want 1", v)
	}
}

// holdCommittedAt starts commit in a goroutine while the test holds held's
// mutex, and returns once tx has published txCommitted: the committer then
// waits at held — which it merges before the objects named after it — and
// has merged nothing from there on.  The returned function releases held
// and returns commit's error.
func holdCommittedAt(t *testing.T, held *Object, tx *Tx, commit func() error) func() error {
	t.Helper()
	held.mu.Lock()
	done := make(chan error, 1)
	go func() { done <- commit() }()
	for {
		if _, ok := tx.Timestamp(); ok {
			break
		}
		runtime.Gosched()
	}
	return func() error {
		held.mu.Unlock()
		return <-done
	}
}

// TestReaderMergesCommittedWriter: a reader that finds a writer committed
// below it but not yet merged at the object it reads completes that merge
// itself instead of waiting for the committer.  The read returns the
// writer's effect, nobody waits, and the committer's own merge there then
// finds nothing left to do: the increment lands once.
func TestReaderMergesCommittedWriter(t *testing.T) {
	sys := NewSystem(Options{})
	conflict := depend.SymmetricClosure(depend.CounterDependency())
	a := sys.NewObject("a", adt.NewCounter(), conflict)
	b := sys.NewObject("b", adt.NewCounter(), conflict)
	tx := sys.Begin()
	mustCall(t, a, tx, adt.IncInv(1))
	mustCall(t, b, tx, adt.IncInv(1))
	release := holdCommittedAt(t, a, tx, tx.Commit)

	waits := sys.stats.Waits.Load()
	r := sys.BeginReadOnly()
	res, err := b.ReadCall(r, adt.CtrReadInv())
	if err != nil {
		t.Fatal(err)
	}
	if res != adt.Itoa(1) {
		t.Fatalf("read of b = %s, want 1: the committed writer's increment", res)
	}
	if n := sys.stats.Waits.Load() - waits; n != 0 {
		t.Fatalf("the read waited %d times, want 0", n)
	}
	if err := r.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := release(); err != nil {
		t.Fatal(err)
	}
	for _, o := range []*Object{a, b} {
		if v := adt.CounterValue(o.CommittedState()); v != 1 {
			t.Errorf("%s = %d after the writer's commit, want 1", o.name, v)
		}
		if st := o.Stats(); st.Commits != 1 || st.Waits != 0 {
			t.Errorf("%s: %d commits and %d waits, want 1 and 0", o.name, st.Commits, st.Waits)
		}
	}
}

// TestReaderMergesExternalCommitOutOfOrder: with external timestamps a
// reader merges a writer that CommitAt placed below an entry already
// merged — a mid-slice insert — and readers on either side of it see
// timestamp order, not arrival order.
func TestReaderMergesExternalCommitOutOfOrder(t *testing.T) {
	sys := NewSystem(Options{ExternalTimestamps: true, DisableCompaction: true})
	conflict := depend.SymmetricClosure(depend.FileDependency())
	a := sys.NewObject("a", adt.NewFile(), conflict)
	b := sys.NewObject("b", adt.NewFile(), conflict)
	late, early := sys.Begin(), sys.Begin()
	mustCall(t, b, late, adt.FileWriteInv(3))
	mustCall(t, a, early, adt.FileWriteInv(1))
	mustCall(t, b, early, adt.FileWriteInv(1))
	if err := late.CommitAt(30); err != nil {
		t.Fatal(err)
	}
	release := holdCommittedAt(t, a, early, func() error { return early.CommitAt(10) })

	waits := sys.stats.Waits.Load()
	for _, c := range []struct{ at, want int64 }{{20, 1}, {40, 3}, {5, 0}} {
		r := sys.BeginReadOnlyBranch(context.Background(), histories.TxID(fmt.Sprintf("R%d", c.at)))
		r.ActivateAt(histories.Timestamp(c.at))
		res, err := b.ReadCall(r, adt.FileReadInv())
		if err != nil {
			t.Fatal(err)
		}
		if res != adt.Itoa(c.want) {
			t.Errorf("read of b at %d = %s, want %d", c.at, res, c.want)
		}
		_ = r.Commit()
	}
	if n := sys.stats.Waits.Load() - waits; n != 0 {
		t.Errorf("the reads waited %d times, want 0", n)
	}
	if err := release(); err != nil {
		t.Fatal(err)
	}
	if v := adt.FileValue(b.CommittedState()); v != 3 {
		t.Errorf("b = %d, want 3 (the later timestamp wins)", v)
	}
	if st := b.Stats(); st.Commits != 2 {
		t.Errorf("b: %d commits, want 2", st.Commits)
	}
}

// TestReaderMergeStress runs snapshot readers beside increment writers on
// eight hot counters, with a recorder attached: readers merge writers'
// commits whenever they meet one unmerged.  Every increment of a committed
// writer lands exactly once, and the recorded history is hybrid atomic.
func TestReaderMergeStress(t *testing.T) {
	rec := verify.NewRecorder()
	sys := NewSystem(Options{Sink: rec, LockWait: time.Second})
	conflict := depend.SymmetricClosure(depend.CounterDependency())
	objs := make([]*Object, 8)
	specs := histories.SpecMap{}
	for i := range objs {
		objs[i] = sys.NewObject(fmt.Sprintf("c%d", i), adt.NewCounter(), conflict)
		specs[objs[i].name] = adt.NewCounter()
	}
	const writers, readers, rounds = 3, 3, 200
	var committed atomic.Int64
	var wg sync.WaitGroup
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := range rounds {
				tx := sys.Begin()
				for i := range 3 {
					if _, err := objs[(w+n+3*i)%len(objs)].Call(tx, adt.IncInv(1)); err != nil {
						t.Error(err)
						_ = tx.Abort()
						return
					}
				}
				if err := tx.Commit(); err != nil {
					t.Error(err)
					return
				}
				committed.Add(3)
			}
		}()
	}
	for range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := range rounds {
				r := sys.BeginReadOnly()
				for i := range 4 {
					if _, err := objs[(n+i)%len(objs)].ReadCall(r, adt.CtrReadInv()); err != nil {
						t.Error(err)
					}
				}
				_ = r.Commit()
			}
		}()
	}
	wg.Wait()

	sum := int64(0)
	for _, o := range objs {
		sum += adt.CounterValue(o.CommittedState())
	}
	if sum != committed.Load() {
		t.Fatalf("counters sum to %d, want %d: an increment was lost or merged twice", sum, committed.Load())
	}
	isReadOnly := func(id histories.TxID) bool { return strings.HasPrefix(string(id), "R") }
	if err := verify.CheckGeneralizedHybridAtomic(rec.History(), specs, isReadOnly); err != nil {
		t.Fatal(err)
	}
}

// TestObjectLayout pins the layout the lock-free read path relies on: what
// it loads lies in the Object's first 64 bytes, and the size is a multiple
// of 64 so an Object in its own allocation starts on a cache line.  With
// reads merging committed writers, the two clients of mem-readmix run side
// by side, and a read of an object the other core has just committed then
// misses on one line of it, not three.  In the 6 alternating 10-s pairs on
// 2 vCPU that chose it, mem-readmix tx_p50_us read +7 % over the parent
// with this layout and +14 to +23 % without it (EXPERIMENTS.md).
func TestObjectLayout(t *testing.T) {
	var o Object
	for _, f := range []struct {
		name      string
		off, size uintptr
	}{
		{"sys", unsafe.Offsetof(o.sys), unsafe.Sizeof(o.sys)},
		{"readSp", unsafe.Offsetof(o.readSp), unsafe.Sizeof(o.readSp)},
		{"sp", unsafe.Offsetof(o.versions) + unsafe.Offsetof(o.versions.sp), unsafe.Sizeof(o.sp)},
		{"tailSnap", unsafe.Offsetof(o.versions) + unsafe.Offsetof(o.versions.tailSnap), unsafe.Sizeof(o.tailSnap)},
		{"windowWriters", unsafe.Offsetof(o.versions) + unsafe.Offsetof(o.versions.windowWriters), unsafe.Sizeof(o.windowWriters)},
	} {
		if f.off+f.size > 64 {
			t.Errorf("Object.%s spans bytes %d–%d, want it inside the first 64", f.name, f.off, f.off+f.size)
		}
	}
	if n := unsafe.Sizeof(o); n%64 != 0 {
		t.Errorf("sizeof(Object) = %d, want a multiple of 64", n)
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
