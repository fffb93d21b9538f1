package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hybridcc/internal/adt"
	"hybridcc/internal/baseline"
	"hybridcc/internal/ccpolicy"
	"hybridcc/internal/depend"
	"hybridcc/internal/histories"
	"hybridcc/internal/spec"
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

// TestClassMemoPerTable runs one pooled transaction's Debit(7) against a
// Post(2) held by another transaction at three Accounts: one under hybrid,
// one under commutativity, and one whose switch from commutativity to
// hybrid installs while the transaction runs, after it waited there.  Each
// grant or wait must be TestGrantMatrix's "Account Post‖Debit→Ok" cell for
// the object's current table.  Every table numbers its classes in its own
// order, so a class remembered from one table names another operation in
// the next: a memo keyed by the operation alone grants at the commutativity
// objects and waits at the switched one.
func TestClassMemoPerTable(t *testing.T) {
	debit, post := adt.DebitInv(7).With(adt.ResOk), adt.PostInv(2).With(adt.ResOk)
	overdraft := adt.DebitInv(7).With(adt.ResOverdraft)
	sys := NewSystem(Options{LockWait: 20 * time.Millisecond})
	account := func(name, scheme string, hybrid, commutativity []spec.Op) *Object {
		set := ccpolicy.NewSet()
		set.Add("hybrid", baseline.ConflictFor("hybrid", "Account"), hybrid)
		set.Add("commutativity", baseline.ConflictFor("commutativity", "Account"), commutativity)
		o, err := sys.NewObjectPolicies(name, adt.NewAccount(), set, scheme)
		if err != nil {
			t.Fatal(err)
		}
		fund := sys.Begin()
		mustCall(t, o, fund, adt.CreditInv(100))
		if err := fund.Commit(); err != nil {
			t.Fatal(err)
		}
		return o
	}
	a := account("a", "hybrid", []spec.Op{debit, post}, nil)
	b := account("b", "commutativity", nil, []spec.Op{post, debit})
	x := account("x", "commutativity", []spec.Op{overdraft, debit, post}, []spec.Op{post, debit})
	hold := func(o *Object) *Tx {
		h := sys.Begin()
		mustCall(t, o, h, adt.PostInv(2))
		return h
	}
	tx := sys.BeginPooledCtx(nil)
	check := func(o *Object, wantWait bool) {
		t.Helper()
		_, err := o.Call(tx, adt.DebitInv(7))
		if waited := errors.Is(err, ErrTimeout); waited != wantWait || (err != nil && !waited) {
			t.Errorf("Debit(7) at %s under %s: err = %v, want a wait: %v", o.Name(), o.Scheme(), err, wantWait)
		}
	}
	holder := hold(a)
	hold(b)
	check(a, false)
	check(b, true)
	hx := hold(x)
	check(x, true)
	_ = hx.Abort()
	if err := x.SetScheme("hybrid"); err != nil || x.Scheme() != "hybrid" {
		t.Fatalf("switch at the idle x: %v, scheme %q", err, x.Scheme())
	}
	hold(x)
	check(x, false)
	_ = holder.Abort()
	_ = tx.Abort()
	sys.Recycle(tx)
}

// TestLockRecordOwnershipStress is the -race check of who may keep a lock
// record: pooled payments on eight hot Accounts keep what their own
// commits and aborts release, beside snapshot readers that merge those
// commits themselves (their records go to the System's free list) and
// aborts that overtake a call in flight (TestAbortUnderCallInFlight's
// case, whose records go there too).  Balances must match the committed
// payments exactly and the recorded history must be hybrid atomic.
func TestLockRecordOwnershipStress(t *testing.T) {
	rec := verify.NewRecorder()
	sys := NewSystem(Options{Sink: rec, LockWait: time.Second})
	specs := histories.SpecMap{}
	accs := make([]*Object, 8)
	fund := sys.Begin()
	for i := range accs {
		accs[i] = sys.NewObjectSeeded(fmt.Sprintf("a%d", i), adt.NewAccount(),
			baseline.ConflictFor("hybrid", "Account"), baseline.UniverseFor("Account"))
		specs[accs[i].Name()] = adt.NewAccount()
		mustCall(t, accs[i], fund, adt.CreditInv(1<<40))
	}
	if err := fund.Commit(); err != nil {
		t.Fatal(err)
	}
	const payers, readers, rounds = 3, 2, 100
	var paid [8]atomic.Int64 // committed payments out of each account
	var wg sync.WaitGroup
	for p := range payers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < rounds; {
				src := (p + 3*n) % len(accs)
				tx := sys.BeginPooledCtx(nil)
				err := func() error {
					if _, err := accs[src].Call(tx, adt.DebitInv(7)); err != nil {
						return err
					}
					for i, a := range accs {
						if i == src {
							continue
						}
						if _, err := a.Call(tx, adt.CreditInv(1)); err != nil {
							return err
						}
					}
					return tx.Commit()
				}()
				if err == nil {
					paid[src].Add(1)
					n++
				} else if _ = tx.Abort(); !errors.Is(err, ErrTimeout) {
					t.Error(err)
					sys.Recycle(tx)
					return
				}
				sys.Recycle(tx)
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
					if _, err := accs[(n+i)%len(accs)].ReadCall(r, adt.DebitInv(1<<50)); err != nil {
						t.Error(err)
					}
				}
				_ = r.Commit()
			}
		}()
	}
	// An aborter parks a pooled transaction's Deq on an empty queue and
	// aborts it there; a producer's Enq lets the call in flight be granted
	// after the Abort, or, every other round, while it runs.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := range rounds / 3 {
			q := sys.NewObject(fmt.Sprintf("q%d", n), adt.NewQueue(), depend.SymmetricClosure(depend.QueueDependencyII()))
			tx := sys.BeginPooledCtx(nil)
			if _, err := accs[n%len(accs)].Call(tx, adt.CreditInv(1)); err != nil {
				t.Error(err)
				return
			}
			called := make(chan error, 1)
			go func() {
				_, err := q.Call(tx, adt.DeqInv())
				called <- err
			}()
			for q.Stats().Waits == 0 {
				time.Sleep(50 * time.Microsecond)
			}
			produced := make(chan error, 1)
			produce := func() {
				p := sys.Begin()
				_, err := q.Call(p, adt.EnqInv(int64(n)))
				if err == nil {
					err = p.Commit()
				}
				produced <- err
			}
			if n%2 == 1 {
				go produce()
			}
			if err := tx.Abort(); err != nil {
				t.Error(err)
			}
			if n%2 == 0 {
				produce()
			}
			if err := <-produced; err != nil {
				t.Error(err)
			}
			<-called // granted or refused: the call exits either way
			sys.Recycle(tx)
		}
	}()
	wg.Wait()

	for i, a := range accs {
		want := int64(1<<40) - 8*paid[i].Load()
		for j := range accs {
			want += paid[j].Load()
		}
		if got := adt.AccountBalance(a.CommittedState()); got != want {
			t.Errorf("%s: balance %d, want %d", a.Name(), got, want)
		}
	}
	for _, o := range sys.Objects() {
		specs[o.Name()] = o.Spec()
	}
	isReadOnly := func(id histories.TxID) bool { return strings.HasPrefix(string(id), "R") }
	if err := verify.CheckGeneralizedHybridAtomic(rec.History(), specs, isReadOnly); err != nil {
		t.Fatal(err)
	}
}
