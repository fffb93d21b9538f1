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

// Group-commit correctness: batching amortizes the critical sections, but
// every transaction must still commit at its own, distinct timestamp, the
// committed state must be exactly the serial state in timestamp order, and
// the recorded global history must verify hybrid atomic.

func newGroupSystem(rec *verify.Recorder) *System {
	opts := Options{GroupCommit: true, LockWait: 250 * time.Millisecond}
	if rec != nil {
		opts.Sink = rec
	}
	return NewSystem(opts)
}

func TestGroupCommitSingleTx(t *testing.T) {
	sys := newGroupSystem(nil)
	acc := sys.NewObject("acc", adt.NewAccount(), depend.SymmetricClosure(depend.AccountDependency()))
	tx := sys.Begin()
	if _, err := acc.Call(tx, adt.CreditInv(7)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if ts, ok := tx.Timestamp(); !ok || ts == 0 {
		t.Fatalf("timestamp = (%d,%v), want a committed timestamp", ts, ok)
	}
	if got := adt.AccountBalance(acc.CommittedState()); got != 7 {
		t.Errorf("balance = %d, want 7", got)
	}
	st := sys.Stats()
	if st.GroupBatches == 0 || st.GroupBatchTxs == 0 {
		t.Errorf("batcher unused: batches=%d txs=%d", st.GroupBatches, st.GroupBatchTxs)
	}
}

// TestGroupCommitBatchDistinctTimestamps forces a real batch: a held
// leader commit (slow touched-object set) lets followers queue, and every
// transaction in the resulting batches must receive its own timestamp,
// strictly distinct across the run, with the committed balance equal to
// the serial sum and the history Verify-clean.
func TestGroupCommitBatchDistinctTimestamps(t *testing.T) {
	rec := verify.NewRecorder()
	sys := newGroupSystem(rec)
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
			t.Fatalf("timestamp %d issued to two transactions in a batch", ts)
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
		t.Errorf("batched history not hybrid atomic: %v", err)
	}
	st := sys.Stats()
	if st.GroupBatches == 0 {
		t.Fatal("no batches recorded")
	}
	t.Logf("batches=%d txs=%d (avg batch %.2f)", st.GroupBatches, st.GroupBatchTxs,
		float64(st.GroupBatchTxs)/float64(st.GroupBatches))
}

// TestGroupCommitCoalescesConcurrentCommits forces a genuine multi-
// transaction batch deterministically: the test holds the object mutex so
// the leader stalls inside its first commit while followers queue behind
// the batcher, then releases it and checks the followers were committed as
// ONE batch — distinct, strictly increasing timestamps and a serial final
// state.
func TestGroupCommitCoalescesConcurrentCommits(t *testing.T) {
	sys := newGroupSystem(nil)
	acc := sys.NewObject("acc", adt.NewAccount(), depend.SymmetricClosure(depend.AccountDependency()))

	const followers = 6
	txs := make([]*Tx, followers+1)
	for i := range txs {
		txs[i] = sys.Begin()
		if _, err := acc.Call(txs[i], adt.CreditInv(1)); err != nil {
			t.Fatal(err)
		}
	}

	// Stall the leader inside its bound read / merge and let the others
	// pile up in the batcher's pending queue.
	acc.mu.Lock()
	var wg sync.WaitGroup
	for _, tx := range txs {
		wg.Add(1)
		go func(tx *Tx) {
			defer wg.Done()
			if err := tx.Commit(); err != nil {
				t.Errorf("commit: %v", err)
			}
		}(tx)
	}
	// Wait until every committer is parked: one leader inside the stalled
	// critical section, the rest queued.
	deadline := time.Now().Add(2 * time.Second)
	b := sys.batcher
	for {
		b.mu.Lock()
		queued := len(b.pending)
		b.mu.Unlock()
		if queued == followers {
			break
		}
		if time.Now().After(deadline) {
			b.mu.Lock()
			queued := len(b.pending)
			b.mu.Unlock()
			acc.mu.Unlock()
			wg.Wait()
			t.Fatalf("only %d of %d followers queued behind the stalled leader", queued, followers)
		}
		time.Sleep(time.Millisecond)
	}
	base := sys.Stats().GroupBatches
	acc.mu.Unlock()
	wg.Wait()

	st := sys.Stats()
	if got := st.GroupBatches - base; got != 1 {
		t.Errorf("followers committed in %d batches, want 1", got)
	}
	seen := make(map[histories.Timestamp]bool)
	for i, tx := range txs {
		ts, ok := tx.Timestamp()
		if !ok {
			t.Fatalf("tx %d not committed", i)
		}
		if seen[ts] {
			t.Fatalf("timestamp %d issued twice within the batch", ts)
		}
		seen[ts] = true
	}
	if got := adt.AccountBalance(acc.CommittedState()); got != followers+1 {
		t.Errorf("balance = %d, want %d", got, followers+1)
	}
}

// TestGroupCommitMultiObjectAndAborts mixes multi-object transactions,
// aborts, and blocked conflicting calls under the batcher: the waiter
// wake-up union mask must release blocked debits when a batch commits, and
// the final balances must reflect exactly the committed transfers.
func TestGroupCommitMultiObjectAndAborts(t *testing.T) {
	rec := verify.NewRecorder()
	sys := newGroupSystem(rec)
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

// TestGroupCommitReadersSeeBatchedCommits pins the windowWriters bracket
// on the batched path: a lock-free snapshot reader begun after a batched
// commit returned must observe that commit (the batch releases the window
// count only after publishing each object's tail snapshot).
func TestGroupCommitReadersSeeBatchedCommits(t *testing.T) {
	sys := newGroupSystem(nil)
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
