package core

import (
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"hybridcc/internal/adt"
	"hybridcc/internal/baseline"
	"hybridcc/internal/depend"
	"hybridcc/internal/histories"
	"hybridcc/internal/verify"
)

// buildAccountDeadlock sets up the classic two-transaction cycle on one
// Account: T1 holds a Debit/Ok lock and T2 holds a Credit lock; T1 then
// needs an Overdraft response (conflicts with T2's Credit) while T2 needs
// a Debit/Ok (conflicts with T1's Debit).
func buildAccountDeadlock(t *testing.T, sys *System, a *Object) (t1, t2 *Tx) {
	t.Helper()
	setup := sys.Begin()
	mustCall(t, a, setup, adt.CreditInv(10))
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}
	t1, t2 = sys.Begin(), sys.Begin()
	if res := mustCall(t, a, t1, adt.DebitInv(5)); res != adt.ResOk {
		t.Fatalf("T1 debit = %q", res)
	}
	mustCall(t, a, t2, adt.CreditInv(1))
	return t1, t2
}

func TestDeadlockDetected(t *testing.T) {
	sys := NewSystem(Options{LockWait: 5 * time.Second, DeadlockDetection: true})
	a := sys.NewObject("A", adt.NewAccount(), depend.SymmetricClosure(depend.AccountDependency()))
	t1, t2 := buildAccountDeadlock(t, sys, a)

	// T1 requests a large debit: balance (view: 10-5=5) < 100 → Overdraft
	// response, which conflicts with T2's Credit lock → T1 blocks with
	// edge T1→T2.
	errCh := make(chan error, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := a.Call(t1, adt.DebitInv(100))
		errCh <- err
	}()
	time.Sleep(30 * time.Millisecond) // let T1 block

	// T2 requests a successful debit (view: 10+1=11 ≥ 2), which conflicts
	// with T1's Debit lock → edge T2→T1 closes the cycle.
	start := time.Now()
	_, err := a.Call(t2, adt.DebitInv(2))
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("T2 err = %v, want ErrDeadlock", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("detection took %s; it must not wait for the timeout", elapsed)
	}
	if a.Stats().Deadlocks == 0 {
		t.Error("deadlock not counted")
	}

	// Aborting the victim unblocks T1.
	if err := t2.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err != nil {
		t.Fatalf("T1 should proceed after the victim aborts: %v", err)
	}
	wg.Wait()
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestDeadlockThreeWayConversion is a conversion cycle of three on one
// key: three transactions hold Bind(a)/Bound on one Directory — shared,
// since each only reads that a is bound — and each then asks Unbind(a),
// which conflicts with every other holder's Bind(a)/Bound.  The first
// request waits on the other two; each later one would close a cycle
// through it and fails with ErrDeadlock at once, not at the lock wait.
// With those two aborted the first Unbind is granted, it commits, and the
// recorded history verifies.  One holder's Bind(a=3) lies outside the
// declared universe, so its conflicts take the extras path.
func TestDeadlockThreeWayConversion(t *testing.T) {
	const lockWait = 5 * time.Second
	rec := verify.NewRecorder()
	sys := NewSystem(Options{LockWait: lockWait, DeadlockDetection: true, Sink: rec})
	d := sys.NewObjectSeeded("D", adt.NewDirectory(), baseline.HybridConflict("Directory"), baseline.UniverseFor("Directory"))
	setup := sys.Begin()
	mustCall(t, d, setup, adt.DirBindInv("a", 1))
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}
	var txs [3]*Tx
	for i := range txs {
		txs[i] = sys.Begin()
		if res := mustCall(t, d, txs[i], adt.DirBindInv("a", int64(i+1))); res != adt.ResBound {
			t.Fatalf("Bind by %s = %q, want %q", txs[i].ID(), res, adt.ResBound)
		}
	}

	first := make(chan error, 1)
	go func() {
		_, err := d.Call(txs[0], adt.DirUnbindInv("a"))
		first <- err
	}()
	for deadline := time.Now().Add(lockWait); d.Stats().Waits == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the first Unbind never waited")
		}
	}
	for _, tx := range txs[1:] {
		start := time.Now()
		if _, err := d.Call(tx, adt.DirUnbindInv("a")); !errors.Is(err, ErrDeadlock) {
			t.Fatalf("Unbind by %s: err = %v, want ErrDeadlock", tx.ID(), err)
		}
		if elapsed := time.Since(start); elapsed > lockWait/10 {
			t.Errorf("Unbind by %s failed after %s; detection must not wait for the lock wait", tx.ID(), elapsed)
		}
	}
	if n := d.Stats().Deadlocks; n != 2 {
		t.Errorf("deadlocks counted = %d, want 2", n)
	}
	for _, tx := range txs[1:] {
		if err := tx.Abort(); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-first; err != nil {
		t.Fatalf("the first Unbind after the victims aborted: %v", err)
	}
	if err := txs[0].Commit(); err != nil {
		t.Fatal(err)
	}
	if err := verify.CheckHybridAtomic(rec.History(), histories.SpecMap{"D": adt.NewDirectory()}); err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockTimesOutWithoutDetection(t *testing.T) {
	sys := NewSystem(Options{LockWait: 40 * time.Millisecond})
	a := sys.NewObject("A", adt.NewAccount(), depend.SymmetricClosure(depend.AccountDependency()))
	t1, t2 := buildAccountDeadlock(t, sys, a)

	errCh := make(chan error, 1)
	go func() {
		_, err := a.Call(t1, adt.DebitInv(100))
		errCh <- err
	}()
	time.Sleep(10 * time.Millisecond)
	_, err := a.Call(t2, adt.DebitInv(2))
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("T2 err = %v, want ErrTimeout (no detection)", err)
	}
	if err := <-errCh; !errors.Is(err, ErrTimeout) {
		t.Fatalf("T1 err = %v, want ErrTimeout", err)
	}
	_ = t1.Abort()
	_ = t2.Abort()
}

func TestNoFalseDeadlockOnDataWait(t *testing.T) {
	// A consumer blocked on an empty queue waits for data, not a lock:
	// detection must not fire even with another active transaction
	// around.
	sys := NewSystem(Options{LockWait: 30 * time.Millisecond, DeadlockDetection: true})
	q := sys.NewObject("Q", adt.NewQueue(), depend.SymmetricClosure(depend.QueueDependencyII()))
	other := sys.Begin()
	mustCall(t, q, other, adt.EnqInv(1))

	consumer := sys.Begin()
	_, err := q.Call(consumer, adt.DeqInv())
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout (pure data wait)", err)
	}
	_ = other.Commit()
	_ = consumer.Abort()
}

func TestNoFalseDeadlockSimpleConflict(t *testing.T) {
	// A plain one-way conflict (no cycle) must wait, not error.
	sys := NewSystem(Options{LockWait: 300 * time.Millisecond, DeadlockDetection: true})
	q := sys.NewObject("Q", adt.NewQueue(), depend.SymmetricClosure(depend.QueueDependencyII()))
	setup := sys.Begin()
	mustCall(t, q, setup, adt.EnqInv(3))
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}
	holder := sys.Begin()
	mustCall(t, q, holder, adt.EnqInv(5))

	done := make(chan error, 1)
	go func() {
		reader := sys.Begin()
		_, err := q.Call(reader, adt.DeqInv())
		if err == nil {
			err = reader.Commit()
		} else {
			_ = reader.Abort()
		}
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	if err := holder.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("one-way conflict must resolve on commit: %v", err)
	}
}

func TestDeadlockAcrossTwoObjects(t *testing.T) {
	// Cross-object cycle: T1 holds a File-A write and wants File-B; T2
	// holds a File-B write and wants File-A (read/write conflicts make
	// writers mutually exclusive).
	sys := NewSystem(Options{LockWait: 5 * time.Second, DeadlockDetection: true})
	conflict := depend.AllConflict()
	fa := sys.NewObject("FA", adt.NewFile(), conflict)
	fb := sys.NewObject("FB", adt.NewFile(), conflict)

	t1, t2 := sys.Begin(), sys.Begin()
	mustCall(t, fa, t1, adt.FileWriteInv(1))
	mustCall(t, fb, t2, adt.FileWriteInv(2))

	errCh := make(chan error, 1)
	go func() {
		_, err := fb.Call(t1, adt.FileWriteInv(3))
		errCh <- err
	}()
	time.Sleep(30 * time.Millisecond)
	_, err := fa.Call(t2, adt.FileWriteInv(4))
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("cross-object cycle: %v, want ErrDeadlock", err)
	}
	if err := t2.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err != nil {
		t.Fatalf("T1 should be granted after victim aborts: %v", err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestDeadlockManyHoldersNamedOnce: 32 transactions hold Inc(1) on one
// Counter (Inc/Inc commute under hybrid), and a CtrRead, which conflicts
// with Inc in every scheme, blocks behind all of them.  Its waits-for
// edges name each holder, and blockersLocked lists each holder once even
// when several candidate responses conflict with it.  The read is granted
// 32 once the last holder commits.
func TestDeadlockManyHoldersNamedOnce(t *testing.T) {
	const n = 32
	sys := NewSystem(Options{LockWait: 10 * time.Second, DeadlockDetection: true})
	c := sys.NewObjectSeeded("C", adt.NewCounter(), baseline.HybridConflict("Counter"), baseline.UniverseFor("Counter"))
	holders := make([]*Tx, n)
	for i := range holders {
		holders[i] = sys.Begin()
		mustCall(t, c, holders[i], adt.IncInv(1))
	}
	reader := sys.Begin()
	got := make(chan string, 1)
	go func() {
		res, err := c.Call(reader, adt.CtrReadInv())
		if err != nil {
			t.Error(err)
		}
		got <- res
	}()

	deadline := time.Now().Add(5 * time.Second)
	for {
		sys.wfg.mu.Lock()
		edges := len(sys.wfg.edges[reader])
		named := !slices.ContainsFunc(holders, func(h *Tx) bool { return !sys.wfg.edges[reader][h] })
		sys.wfg.mu.Unlock()
		if edges == n && named {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the blocked read has %d waits-for edges, want %d", edges, n)
		}
		time.Sleep(time.Millisecond)
	}
	c.mu.Lock()
	blockers := c.blockersLocked(reader, adt.CtrReadInv(), []string{"0", "1", "32"})
	c.mu.Unlock()
	named := make(map[*Tx]int)
	for _, h := range blockers {
		named[h]++
	}
	for i, h := range holders {
		if named[h] != 1 {
			t.Errorf("holder %d named %d times, want once", i, named[h])
		}
	}
	if len(blockers) != n {
		t.Errorf("%d blockers, want %d", len(blockers), n)
	}

	for _, h := range holders {
		if err := h.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if res := <-got; res != "32" {
		t.Fatalf("CtrRead = %q after %d Inc(1) commits, want 32", res, n)
	}
	if err := reader.Commit(); err != nil {
		t.Fatal(err)
	}
}
