package core

import (
	"sync"
	"testing"
	"time"

	"hybridcc/internal/adt"
	"hybridcc/internal/depend"
	"hybridcc/internal/histories"
	"hybridcc/internal/verify"
)

// Concurrent-commit correctness: every transaction must commit at its own,
// distinct timestamp, the committed state must be exactly the serial state
// in timestamp order, and the recorded global history must verify hybrid
// atomic.

func newCommitSystem(rec *verify.Recorder) *System {
	opts := Options{LockWait: 250 * time.Millisecond}
	if rec != nil {
		opts.Sink = rec
	}
	return NewSystem(opts)
}

// TestConcurrentCommitDistinctTimestamps: sixteen committers on one object,
// and every transaction must receive its own timestamp, strictly distinct
// across the run, with the committed balance equal to the serial sum and
// the history Verify-clean.
func TestConcurrentCommitDistinctTimestamps(t *testing.T) {
	rec := verify.NewRecorder()
	sys := newCommitSystem(rec)
	acc := sys.NewObjectSeeded("acc", adt.NewAccount(),
		depend.SymmetricClosure(depend.AccountDependency()), nil)

	const workers = 16
	const rounds = 50
	var wg sync.WaitGroup
	tsCh := make(chan histories.Timestamp, workers*rounds)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				tx := sys.BeginPooledCtx(nil)
				if _, err := acc.Call(tx, adt.CreditInv(1)); err != nil {
					t.Errorf("call: %v", err)
					return
				}
				if err := tx.Commit(); err != nil {
					t.Errorf("commit: %v", err)
					return
				}
				ts, ok := tx.Timestamp()
				if !ok || ts == 0 {
					t.Errorf("committed tx reports timestamp (%d,%v)", ts, ok)
					return
				}
				tsCh <- ts
				sys.Recycle(tx)
			}
		}()
	}
	wg.Wait()
	close(tsCh)

	seen := make(map[histories.Timestamp]bool, workers*rounds)
	for ts := range tsCh {
		if seen[ts] {
			t.Fatalf("timestamp %d issued to two transactions", ts)
		}
		seen[ts] = true
	}
	if len(seen) != workers*rounds {
		t.Fatalf("committed %d transactions, want %d", len(seen), workers*rounds)
	}
	if got := adt.AccountBalance(acc.CommittedState()); got != workers*rounds {
		t.Errorf("balance = %d, want %d", got, workers*rounds)
	}
	specs := histories.SpecMap{acc.Name(): adt.NewAccount()}
	if err := verify.CheckHybridAtomic(rec.History(), specs); err != nil {
		t.Errorf("history not hybrid atomic: %v", err)
	}
}

// TestConcurrentCommitMultiObjectAndAborts mixes multi-object
// transactions, aborts, and blocked conflicting calls: the committed lock
// record's wakeup mask must release blocked debits when a transfer
// commits, and the final balances must reflect exactly the committed
// transfers.
func TestConcurrentCommitMultiObjectAndAborts(t *testing.T) {
	rec := verify.NewRecorder()
	sys := newCommitSystem(rec)
	a := sys.NewObject("a", adt.NewAccount(), depend.SymmetricClosure(depend.AccountDependency()))
	b := sys.NewObject("b", adt.NewAccount(), depend.SymmetricClosure(depend.AccountDependency()))

	seed := sys.Begin()
	if _, err := a.Call(seed, adt.CreditInv(10_000)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Call(seed, adt.CreditInv(10_000)); err != nil {
		t.Fatal(err)
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}

	const workers = 8
	const rounds = 100
	var wg sync.WaitGroup
	var mu sync.Mutex
	transferred := int64(0)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				tx := sys.BeginPooledCtx(nil)
				ok := func() bool {
					if res, err := a.Call(tx, adt.DebitInv(1)); err != nil || res != adt.ResOk {
						return false
					}
					if _, err := b.Call(tx, adt.CreditInv(1)); err != nil {
						return false
					}
					return true
				}()
				if !ok || i%7 == g%7 {
					_ = tx.Abort()
					sys.Recycle(tx)
					continue
				}
				if err := tx.Commit(); err != nil {
					t.Errorf("commit: %v", err)
					return
				}
				mu.Lock()
				transferred++
				mu.Unlock()
				sys.Recycle(tx)
			}
		}(g)
	}
	wg.Wait()

	if got := adt.AccountBalance(a.CommittedState()); got != 10_000-transferred {
		t.Errorf("a = %d, want %d", got, 10_000-transferred)
	}
	if got := adt.AccountBalance(b.CommittedState()); got != 10_000+transferred {
		t.Errorf("b = %d, want %d", got, 10_000+transferred)
	}
	specs := histories.SpecMap{a.Name(): adt.NewAccount(), b.Name(): adt.NewAccount()}
	if err := verify.CheckHybridAtomic(rec.History(), specs); err != nil {
		t.Errorf("history not hybrid atomic: %v", err)
	}
}

// TestReadersSeeConcurrentCommits pins the windowWriters bracket under
// concurrent committers: a lock-free snapshot reader begun after a commit
// returned must observe that commit (commitTx releases the window count
// only after publishing each object's tail snapshot).
func TestReadersSeeConcurrentCommits(t *testing.T) {
	sys := newCommitSystem(nil)
	ctr := sys.NewObjectSeeded("ctr", adt.NewCounter(),
		depend.SymmetricClosure(depend.CounterDependency()), nil)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				tx := sys.BeginPooledCtx(nil)
				if _, err := ctr.Call(tx, adt.IncInv(1)); err != nil {
					_ = tx.Abort()
					sys.Recycle(tx)
					continue
				}
				if err := tx.Commit(); err != nil {
					t.Errorf("commit: %v", err)
					return
				}
				sys.Recycle(tx)
			}
		}()
	}
	deadline := time.Now().Add(200 * time.Millisecond)
	last := int64(0)
	for time.Now().Before(deadline) {
		rt := sys.BeginReadOnly()
		res, err := ctr.ReadCall(rt, adt.CtrReadInv())
		if err != nil {
			_ = rt.Abort()
			continue
		}
		_ = rt.Commit()
		n := adt.Atoi(res)
		if n < last {
			t.Fatalf("snapshot went backwards: %d after %d", n, last)
		}
		last = n
	}
	close(stop)
	wg.Wait()
}
