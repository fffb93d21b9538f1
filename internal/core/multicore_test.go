package core

import (
	"context"
	"errors"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hybridcc/internal/adt"
	"hybridcc/internal/baseline"
	"hybridcc/internal/depend"
)

// This file tests the multi-core hot path: the lock-free reader snapshot
// (published committed tail + commit-window counter) and the targeted
// wakeup queue that replaced the broadcast condition variable.  Run with
// -race and -cpu 1,4 (as CI does) to exercise the interleavings.

// TestLockFreeReaderSnapshotStress pits lock-free snapshot readers against
// committers, aborters, and horizon folds on one hot object.  Each reader
// asserts its observed counter value never decreases across successive
// snapshots (later readers have later timestamps, and only increments
// commit), which a torn or stale-published tail would violate; the final
// committed value cross-checks that no increment was lost.
func TestLockFreeReaderSnapshotStress(t *testing.T) {
	sys := NewSystem(Options{LockWait: time.Second})
	obj := sys.NewObjectSeeded("ctr", adt.NewCounter(),
		depend.SymmetricClosure(depend.CounterDependency()), baseline.UniverseFor("Counter"))

	const writers = 4
	const txPerWriter = 300
	var committed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; n < txPerWriter; n++ {
				tx := sys.Begin()
				amt := int64(w%3 + 1)
				if _, err := obj.Call(tx, adt.IncInv(amt)); err != nil {
					t.Errorf("writer %d: %v", w, err)
					_ = tx.Abort()
					return
				}
				if n%5 == 0 { // aborts exercise lock release and folds
					_ = tx.Abort()
					continue
				}
				if err := tx.Commit(); err == nil {
					committed.Add(amt)
				}
			}
		}(w)
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			last := int64(-1)
			for {
				select {
				case <-stop:
					return
				default:
				}
				rt := sys.BeginReadOnly()
				res, err := obj.ReadCall(rt, adt.CtrReadInv())
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					_ = rt.Abort()
					return
				}
				_ = rt.Commit()
				v, err := strconv.ParseInt(res, 10, 64)
				if err != nil {
					t.Errorf("reader %d: bad counter value %q", r, res)
					return
				}
				if v < last {
					t.Errorf("reader %d: counter went backwards: %d after %d", r, v, last)
					return
				}
				last = v
			}
		}(r)
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	if v := adt.CounterValue(obj.CommittedState()); v != committed.Load() {
		t.Fatalf("committed value = %d, want %d", v, committed.Load())
	}
	// A final lock-free read must agree with the committed tail.
	rt := sys.BeginReadOnly()
	res, err := obj.ReadCall(rt, adt.CtrReadInv())
	if err != nil {
		t.Fatal(err)
	}
	_ = rt.Commit()
	if res != strconv.FormatInt(committed.Load(), 10) {
		t.Fatalf("final snapshot read = %s, want %d", res, committed.Load())
	}
}

// TestLockFreeReaderSeesPriorCommits pins the commit-window ordering of
// the lock-free path: a reader that begins after Commit returns must
// observe that commit in its snapshot, every time.
func TestLockFreeReaderSeesPriorCommits(t *testing.T) {
	sys := NewSystem(Options{})
	obj := sys.NewObject("ctr", adt.NewCounter(), depend.SymmetricClosure(depend.CounterDependency()))
	for i := 1; i <= 300; i++ {
		tx := sys.Begin()
		if _, err := obj.Call(tx, adt.IncInv(1)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		rt := sys.BeginReadOnly()
		res, err := obj.ReadCall(rt, adt.CtrReadInv())
		if err != nil {
			t.Fatal(err)
		}
		_ = rt.Commit()
		if res != strconv.Itoa(i) {
			t.Fatalf("after %d commits, snapshot read = %s", i, res)
		}
	}
}

// TestTargetedWakeupSkipsDisjointCommit pins the point of the waiter
// masks: a blocked call is NOT signalled by the commit of a transaction
// whose held classes cannot unblock it, and IS signalled by the
// conflicting holder's completion.  Uses a universe-seeded Set, whose
// hybrid relation is per-element: operations on element 2 never conflict
// with a blocked Insert(1).
func TestTargetedWakeupSkipsDisjointCommit(t *testing.T) {
	sys := NewSystem(Options{LockWait: 5 * time.Second})
	obj := sys.NewObjectSeeded("s", adt.NewSet(),
		baseline.HybridConflict("Set"), baseline.UniverseFor("Set"))

	tx1 := sys.Begin()
	if _, err := obj.Call(tx1, adt.SetInsertInv(1)); err != nil {
		t.Fatal(err)
	}

	type outcome struct {
		res string
		err error
	}
	done := make(chan outcome, 1)
	tx2 := sys.Begin()
	go func() {
		res, err := obj.Call(tx2, adt.SetInsertInv(1)) // conflicts with tx1
		done <- outcome{res, err}
	}()

	// Wait until tx2 is queued.
	for i := 0; waiters(obj) != 1; i++ {
		if i > 1000 {
			t.Fatal("tx2 never blocked")
		}
		time.Sleep(time.Millisecond)
	}

	// A commit on a disjoint element must not signal the waiter.
	tx3 := sys.Begin()
	if _, err := obj.Call(tx3, adt.SetInsertInv(2)); err != nil {
		t.Fatal(err)
	}
	if err := tx3.Commit(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if n := sys.Stats().Wakeups; n != 0 {
		t.Fatalf("disjoint commit delivered %d wakeups, want 0", n)
	}
	select {
	case o := <-done:
		t.Fatalf("tx2 unblocked by disjoint commit: %q, %v", o.res, o.err)
	default:
	}

	// The conflicting holder's commit must signal it.
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	select {
	case o := <-done:
		if o.err != nil {
			t.Fatalf("tx2 after conflicting commit: %v", o.err)
		}
		if o.res != adt.ResPresent {
			t.Fatalf("tx2 response = %q, want %q", o.res, adt.ResPresent)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("tx2 not woken by the conflicting commit")
	}
	if n := sys.Stats().Wakeups; n != 1 {
		t.Errorf("wakeups = %d, want 1", n)
	}
	if hwm := obj.Stats().WaiterHWM; hwm != 1 {
		t.Errorf("waiter high-water mark = %d, want 1", hwm)
	}
	_ = tx2.Commit()
}

// TestDataBlockedConsumerWokenByProducer pins the conservative side of the
// wake rule: a call blocked on data (Deq on an empty queue has no legal
// response) is signalled by any commit, since a commit can enable a
// response no wakeup mask covers.
func TestDataBlockedConsumerWokenByProducer(t *testing.T) {
	sys := NewSystem(Options{LockWait: 5 * time.Second})
	obj := sys.NewObject("q", adt.NewQueue(), depend.SymmetricClosure(depend.QueueDependencyII()))

	done := make(chan string, 1)
	consumer := sys.Begin()
	go func() {
		res, err := obj.Call(consumer, adt.DeqInv())
		if err != nil {
			t.Errorf("consumer: %v", err)
		}
		done <- res
	}()
	time.Sleep(10 * time.Millisecond)

	producer := sys.Begin()
	if _, err := obj.Call(producer, adt.EnqInv(7)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := producer.Commit(); err != nil {
		t.Fatal(err)
	}
	select {
	case res := <-done:
		if res != "7" {
			t.Fatalf("Deq = %q, want 7", res)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("consumer not woken by producer's commit")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("consumer woken only after %s", elapsed)
	}
	_ = consumer.Commit()
}

// TestBlockedCallWokenPromptly pins wakeup latency: under full read/write
// conflicts the blocked writer must be granted as soon as the holder
// commits, far below the lock-wait bound.
func TestBlockedCallWokenPromptly(t *testing.T) {
	sys := NewSystem(Options{LockWait: 10 * time.Second})
	obj := sys.NewObject("f", adt.NewFile(), baseline.ReadWrite("File"))

	tx1 := sys.Begin()
	if _, err := obj.Call(tx1, adt.FileWriteInv(1)); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	tx2 := sys.Begin()
	go func() {
		_, err := obj.Call(tx2, adt.FileWriteInv(2))
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)

	start := time.Now()
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked writer never woken")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("blocked writer woken only after %s (LockWait is 10s)", elapsed)
	}
	_ = tx2.Commit()
}

// TestBlockedCallStillTimesOut pins the timeout path of the waiter queue:
// with the conflicting lock never released, the blocked call returns
// ErrTimeout after roughly the lock wait.
func TestBlockedCallStillTimesOut(t *testing.T) {
	sys := NewSystem(Options{LockWait: 50 * time.Millisecond})
	obj := sys.NewObject("f", adt.NewFile(), baseline.ReadWrite("File"))

	tx1 := sys.Begin()
	if _, err := obj.Call(tx1, adt.FileWriteInv(1)); err != nil {
		t.Fatal(err)
	}
	tx2 := sys.Begin()
	start := time.Now()
	_, err := obj.Call(tx2, adt.FileWriteInv(2))
	elapsed := time.Since(start)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("blocked call = %v, want ErrTimeout", err)
	}
	if elapsed < 40*time.Millisecond || elapsed > 5*time.Second {
		t.Fatalf("timeout after %s, want ≈50ms", elapsed)
	}
	_ = tx1.Abort()
	_ = tx2.Abort()
}

// TestBlockedCallHonorsCancel pins the cancellation path: cancelling the
// transaction's context unblocks the wait promptly with an error wrapping
// the context's error.
func TestBlockedCallHonorsCancel(t *testing.T) {
	sys := NewSystem(Options{LockWait: 10 * time.Second})
	obj := sys.NewObject("f", adt.NewFile(), baseline.ReadWrite("File"))

	tx1 := sys.Begin()
	if _, err := obj.Call(tx1, adt.FileWriteInv(1)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	tx2 := sys.BeginCtx(ctx)
	done := make(chan error, 1)
	go func() {
		_, err := obj.Call(tx2, adt.FileWriteInv(2))
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	start := time.Now()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled call = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancel did not unblock the wait")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("cancel honored only after %s", elapsed)
	}
	_ = tx1.Abort()
	_ = tx2.Abort()
}

// TestNoLostWakeupStress drives full-conflict contention through the
// waiter queue: every transaction must eventually commit (no waiter is
// lost, none starves) well inside the generous lock wait.
func TestNoLostWakeupStress(t *testing.T) {
	sys := NewSystem(Options{LockWait: 30 * time.Second})
	obj := sys.NewObject("f", adt.NewFile(), baseline.ReadWrite("File"))

	const workers = 8
	const txPerWorker = 50
	var wg sync.WaitGroup
	var failures atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; n < txPerWorker; n++ {
				tx := sys.Begin()
				if _, err := obj.Call(tx, adt.FileWriteInv(int64(w))); err != nil {
					failures.Add(1)
					_ = tx.Abort()
					continue
				}
				if err := tx.Commit(); err != nil {
					failures.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d of %d transactions failed under full conflicts", n, workers*txPerWorker)
	}
	if c := sys.Stats().Committed; c != workers*txPerWorker {
		t.Fatalf("committed = %d, want %d", c, workers*txPerWorker)
	}
}
