package core

import (
	"errors"
	"sync"
	"testing"
	"time"

	"hybridcc/internal/adt"
	"hybridcc/internal/depend"
	"hybridcc/internal/histories"
	"hybridcc/internal/verify"
)

// These tests pin the pool-recycling contract: a Tx drawn from the free
// list carries no state from its previous incarnation, a handle held
// across Recycle is dead (ErrTxDone — never silent aliasing onto the
// reused struct), and the recycled auxiliary structures (txLock records,
// waiter nodes, scratch buffers) leak nothing across transactions even
// under -race stress.

func TestRecycledTxStaleHandleReturnsErrTxDone(t *testing.T) {
	sys := NewSystem(Options{})
	acc := sys.NewObject("acc", adt.NewAccount(), depend.SymmetricClosure(depend.AccountDependency()))

	tx := sys.BeginPooledCtx(nil)
	if _, err := acc.Call(tx, adt.CreditInv(10)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	sys.Recycle(tx)

	// The stale handle is dead on every entry point.
	if _, err := acc.Call(tx, adt.CreditInv(1)); !errors.Is(err, ErrTxDone) {
		t.Errorf("Call on recycled handle = %v, want ErrTxDone", err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxDone) {
		t.Errorf("Commit on recycled handle = %v, want ErrTxDone", err)
	}
	if err := tx.Abort(); !errors.Is(err, ErrTxDone) {
		t.Errorf("Abort on recycled handle = %v, want ErrTxDone", err)
	}
	if _, err := tx.Prepare(); !errors.Is(err, ErrTxDone) {
		t.Errorf("Prepare on recycled handle = %v, want ErrTxDone", err)
	}
	if _, ok := tx.Timestamp(); ok {
		t.Error("Timestamp on recycled handle reports committed")
	}
}

func TestRecycledTxCarriesNoStateAcrossReuse(t *testing.T) {
	sys := NewSystem(Options{})
	acc := sys.NewObject("acc", adt.NewAccount(), depend.SymmetricClosure(depend.AccountDependency()))

	first := sys.BeginPooledCtx(nil)
	firstGen := first.gen
	firstID := first.ID()
	if _, err := acc.Call(first, adt.CreditInv(10)); err != nil {
		t.Fatal(err)
	}
	if err := first.Commit(); err != nil {
		t.Fatal(err)
	}
	sys.Recycle(first)

	// With a single-P pool and no interference the next acquire returns
	// the same struct; if it does not, the assertions below still hold
	// (they only check freshness).
	second := sys.BeginPooledCtx(nil)
	if second == first {
		if second.gen != firstGen+1 {
			t.Errorf("reused Tx generation = %d, want %d", second.gen, firstGen+1)
		}
	}
	if id := second.ID(); id == firstID {
		t.Errorf("reused Tx kept old identifier %s", id)
	}
	second.mu.Lock()
	if len(second.objs) != 0 || second.bound != 0 || second.calls != 0 {
		t.Errorf("reused Tx inherits grant books: %d touched objects, bound %d, %d calls",
			len(second.objs), second.bound, second.calls)
	}
	if second.status != txActive || second.busy || second.prepared || second.ts != 0 {
		t.Errorf("reused Tx not reset: status=%v busy=%v prepared=%v ts=%d",
			second.status, second.busy, second.prepared, second.ts)
	}
	second.mu.Unlock()
	if _, err := acc.Call(second, adt.CreditInv(5)); err != nil {
		t.Fatal(err)
	}
	if err := second.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := adt.AccountBalance(acc.CommittedState()); got != 15 {
		t.Errorf("balance = %d, want 15", got)
	}
}

func TestRecycleIsNoOpOnActiveOrBusyTx(t *testing.T) {
	sys := NewSystem(Options{})
	acc := sys.NewObject("acc", adt.NewAccount(), depend.SymmetricClosure(depend.AccountDependency()))

	tx := sys.BeginPooledCtx(nil)
	sys.Recycle(tx) // active: must not recycle
	if _, err := acc.Call(tx, adt.CreditInv(1)); err != nil {
		t.Fatalf("Call after no-op Recycle: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	sys.Recycle(tx)
	sys.Recycle(tx) // double recycle: second is a no-op, no double-Put
	a, b := sys.BeginPooledCtx(nil), sys.BeginPooledCtx(nil)
	if a == b {
		t.Fatal("double Recycle put one Tx in the pool twice")
	}
}

// TestPoolRecyclingStress hammers the pooled path from many goroutines —
// conflicting debits force blocked calls (waiter recycling), aborts mix
// with commits (both txLock release paths) — and then verifies the global
// history: any state leaking across a recycled Tx, lock record, or waiter
// would surface as a verification failure, a wrong balance, or a -race
// report.
func TestPoolRecyclingStress(t *testing.T) {
	rec := verify.NewRecorder()
	sys := NewSystem(Options{Sink: rec, LockWait: 250 * time.Millisecond})
	acc := sys.NewObjectSeeded("acc", adt.NewAccount(),
		depend.SymmetricClosure(depend.AccountDependency()), nil)

	fundTx := sys.Begin()
	if _, err := acc.Call(fundTx, adt.CreditInv(1_000_000)); err != nil {
		t.Fatal(err)
	}
	if err := fundTx.Commit(); err != nil {
		t.Fatal(err)
	}

	const (
		workers = 8
		rounds  = 200
	)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var debited, credited int64
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				tx := sys.BeginPooledCtx(nil)
				res, err := acc.Call(tx, adt.DebitInv(1))
				if err != nil || res != adt.ResOk {
					_ = tx.Abort()
					sys.Recycle(tx)
					continue
				}
				if i%5 == g%5 {
					_ = tx.Abort()
					sys.Recycle(tx)
					continue
				}
				if _, err := acc.Call(tx, adt.CreditInv(2)); err != nil {
					_ = tx.Abort()
					sys.Recycle(tx)
					continue
				}
				if err := tx.Commit(); err != nil {
					t.Errorf("commit: %v", err)
					return
				}
				mu.Lock()
				debited++
				credited += 2
				mu.Unlock()
				sys.Recycle(tx)
			}
		}(g)
	}
	wg.Wait()

	want := 1_000_000 - debited + credited
	if got := adt.AccountBalance(acc.CommittedState()); got != want {
		t.Errorf("balance = %d, want %d", got, want)
	}
	specs := histories.SpecMap{acc.Name(): adt.NewAccount()}
	if err := verify.CheckHybridAtomic(rec.History(), specs); err != nil {
		t.Errorf("history not hybrid atomic: %v", err)
	}
}

// TestPooledAtomicallyLoopReuse drives the BeginPooled/Recycle pair the
// way the public retry loop uses it — repeated attempts on one goroutine —
// and checks the same struct actually round-trips through the pool (the
// allocation win the tentpole claims).
func TestPooledAtomicallyLoopReuse(t *testing.T) {
	sys := NewSystem(Options{})
	acc := sys.NewObject("acc", adt.NewAccount(), depend.SymmetricClosure(depend.AccountDependency()))

	reused := 0
	var prev *Tx
	for i := 0; i < 32; i++ {
		tx := sys.BeginPooledCtx(nil)
		if tx == prev {
			reused++
		}
		prev = tx
		if _, err := acc.Call(tx, adt.CreditInv(1)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		sys.Recycle(tx)
	}
	if reused == 0 {
		t.Error("pooled loop never reused a Tx struct")
	}
	if got := adt.AccountBalance(acc.CommittedState()); got != 32 {
		t.Errorf("balance = %d, want 32", got)
	}
}
