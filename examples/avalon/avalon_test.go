package avalon

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"hybridcc/internal/adt"
	"hybridcc/internal/core"
	"hybridcc/internal/depend"
)

func newSys() *System { return NewSystem(200 * time.Millisecond) }

func TestCreditDebitCommit(t *testing.T) {
	sys := newSys()
	a := sys.NewAccount()
	who := sys.Begin()
	if err := a.Credit(who, 100); err != nil {
		t.Fatal(err)
	}
	ok, err := a.Debit(who, 40)
	if err != nil || !ok {
		t.Fatalf("debit: ok=%v err=%v", ok, err)
	}
	if err := sys.Commit(who); err != nil {
		t.Fatal(err)
	}
	if bal := a.CommittedBalance(); bal != 60 {
		t.Errorf("balance = %d", bal)
	}
}

func TestOverdraftRefusedWithoutChange(t *testing.T) {
	sys := newSys()
	a := sys.NewAccount()
	who := sys.Begin()
	ok, err := a.Debit(who, 10)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("debit from empty account must overdraft")
	}
	if err := sys.Commit(who); err != nil {
		t.Fatal(err)
	}
	if bal := a.CommittedBalance(); bal != 0 {
		t.Errorf("balance = %d", bal)
	}
}

func TestAffineIntentApplicationOrder(t *testing.T) {
	// Credit 10 then Post ×3 within one transaction: intent must be
	// (mul=3, add=30), i.e. post scales the earlier credit.
	sys := newSys()
	a := sys.NewAccount()

	fund := sys.Begin()
	if err := a.Credit(fund, 5); err != nil {
		t.Fatal(err)
	}
	if err := sys.Commit(fund); err != nil {
		t.Fatal(err)
	}

	who := sys.Begin()
	if err := a.Credit(who, 10); err != nil {
		t.Fatal(err)
	}
	if err := a.Post(who, 3); err != nil {
		t.Fatal(err)
	}
	if err := sys.Commit(who); err != nil {
		t.Fatal(err)
	}
	// (5 + 10) * 3 = 45.
	if bal := a.CommittedBalance(); bal != 45 {
		t.Errorf("balance = %d, want 45", bal)
	}
}

func TestAbortDiscardsIntent(t *testing.T) {
	sys := newSys()
	a := sys.NewAccount()
	who := sys.Begin()
	if err := a.Credit(who, 999); err != nil {
		t.Fatal(err)
	}
	if err := sys.Abort(who); err != nil {
		t.Fatal(err)
	}
	if bal := a.CommittedBalance(); bal != 0 {
		t.Errorf("balance after abort = %d", bal)
	}
	if err := sys.Commit(who); err == nil {
		t.Error("commit after abort must fail")
	}
}

func TestResponseDependentLocking(t *testing.T) {
	sys := NewSystem(30 * time.Millisecond)
	a := sys.NewAccount()

	fund := sys.Begin()
	if err := a.Credit(fund, 100); err != nil {
		t.Fatal(err)
	}
	if err := sys.Commit(fund); err != nil {
		t.Fatal(err)
	}

	// P holds a CREDIT_LOCK.
	p := sys.Begin()
	if err := a.Credit(p, 50); err != nil {
		t.Fatal(err)
	}
	// Q's successful debit proceeds (DEBIT_LOCK does not conflict with
	// CREDIT_LOCK).
	q := sys.Begin()
	ok, err := a.Debit(q, 100)
	if err != nil || !ok {
		t.Fatalf("successful debit blocked: ok=%v err=%v", ok, err)
	}
	// R's overdraft attempt needs OVERDRAFT_LOCK, which conflicts with
	// CREDIT_LOCK: the when-statement times out.
	r := sys.Begin()
	if _, err := a.Debit(r, 10_000); !errors.Is(err, ErrWhenTimeout) {
		t.Fatalf("overdraft should block on the credit lock, got %v", err)
	}
	// Q also cannot run a second successful debit concurrently with its
	// own? It can — own locks never self-conflict; but another debitor
	// conflicts on DEBIT_LOCK × DEBIT_LOCK.
	d2 := sys.Begin()
	if _, err := a.Debit(d2, 1); !errors.Is(err, ErrWhenTimeout) {
		t.Fatalf("second debitor should block on DEBIT_LOCK, got %v", err)
	}
	if err := sys.Commit(p); err != nil {
		t.Fatal(err)
	}
	if err := sys.Commit(q); err != nil {
		t.Fatal(err)
	}
	// With P and Q committed, the overdraft can be evaluated: balance is
	// 100+50-100 = 50 < 10000 → refused but granted.
	ok, err = a.Debit(r, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("debit beyond balance must overdraft")
	}
}

func TestWhenBlocksUntilSignal(t *testing.T) {
	sys := NewSystem(2 * time.Second)
	a := sys.NewAccount()
	p := sys.Begin()
	if err := a.Credit(p, 10); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		r := sys.Begin()
		_, err := a.Debit(r, 10_000) // overdraft; blocked by p's credit lock
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	if err := sys.Commit(p); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("blocked whenswitch must wake on commit: %v", err)
	}
}

func TestForgetFoldsAtHorizon(t *testing.T) {
	sys := newSys()
	a := sys.NewAccount()
	// Pin the horizon with an active transaction that executed here.
	pin := sys.Begin()
	if err := a.Credit(pin, 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		w := sys.Begin()
		if err := a.Credit(w, 10); err != nil {
			t.Fatal(err)
		}
		if err := sys.Commit(w); err != nil {
			t.Fatal(err)
		}
	}
	if n := a.UnforgottenLen(); n != 5 {
		t.Errorf("unforgotten while pinned = %d, want 5", n)
	}
	if err := sys.Commit(pin); err != nil {
		t.Fatal(err)
	}
	if n := a.UnforgottenLen(); n != 0 {
		t.Errorf("unforgotten after pin commits = %d, want 0", n)
	}
	if bal := a.CommittedBalance(); bal != 51 {
		t.Errorf("balance = %d, want 51", bal)
	}
}

func TestMultipleAccounts(t *testing.T) {
	sys := newSys()
	src, dst := sys.NewAccount(), sys.NewAccount()
	fund := sys.Begin()
	if err := src.Credit(fund, 100); err != nil {
		t.Fatal(err)
	}
	if err := sys.Commit(fund); err != nil {
		t.Fatal(err)
	}
	mv := sys.Begin()
	ok, err := src.Debit(mv, 30)
	if err != nil || !ok {
		t.Fatal("debit failed")
	}
	if err := dst.Credit(mv, 30); err != nil {
		t.Fatal(err)
	}
	if err := sys.Commit(mv); err != nil {
		t.Fatal(err)
	}
	if src.CommittedBalance() != 70 || dst.CommittedBalance() != 30 {
		t.Errorf("balances = %d, %d", src.CommittedBalance(), dst.CommittedBalance())
	}
}

// TestEquivalenceWithGenericRuntime drives identical randomized schedules
// through the appendix implementation and the generic runtime and compares
// committed balances: the affine-intent representation must be
// semantically invisible.
func TestEquivalenceWithGenericRuntime(t *testing.T) {
	type step struct {
		op     int // 0 credit, 1 post, 2 debit
		amount int64
		commit bool
	}
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		steps := make([]step, 25)
		for i := range steps {
			steps[i] = step{
				op:     rng.Intn(3),
				amount: 1 + rng.Int63n(20),
				commit: rng.Intn(4) > 0,
			}
		}

		// Appendix implementation (sequential schedule).
		asys := newSys()
		aAcct := asys.NewAccount()
		for _, st := range steps {
			who := asys.Begin()
			switch st.op {
			case 0:
				if err := aAcct.Credit(who, st.amount); err != nil {
					t.Fatal(err)
				}
			case 1:
				if err := aAcct.Post(who, 1+st.amount%3); err != nil {
					t.Fatal(err)
				}
			default:
				if _, err := aAcct.Debit(who, st.amount); err != nil {
					t.Fatal(err)
				}
			}
			if st.commit {
				if err := asys.Commit(who); err != nil {
					t.Fatal(err)
				}
			} else {
				if err := asys.Abort(who); err != nil {
					t.Fatal(err)
				}
			}
		}

		// Generic runtime, same schedule.
		gsys := core.NewSystem(core.Options{})
		gAcct := gsys.NewObject("a", adt.NewAccount(), coreAccountConflict())
		for _, st := range steps {
			tx := gsys.Begin()
			var err error
			switch st.op {
			case 0:
				_, err = gAcct.Call(tx, adt.CreditInv(st.amount))
			case 1:
				_, err = gAcct.Call(tx, adt.PostInv(1+st.amount%3))
			default:
				_, err = gAcct.Call(tx, adt.DebitInv(st.amount))
			}
			if err != nil {
				t.Fatal(err)
			}
			if st.commit {
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
			} else {
				if err := tx.Abort(); err != nil {
					t.Fatal(err)
				}
			}
		}

		if got, want := aAcct.CommittedBalance(), adt.AccountBalance(gAcct.CommittedState()); got != want {
			t.Fatalf("seed %d: avalon balance %d != generic runtime balance %d", seed, got, want)
		}
	}
}

// TestConcurrentTellers runs the appendix account under real concurrency
// and checks conservation: total credited minus total successfully debited
// equals the final balance (no posts in this mix).
func TestConcurrentTellers(t *testing.T) {
	sys := NewSystem(2 * time.Second)
	a := sys.NewAccount()
	fund := sys.Begin()
	if err := a.Credit(fund, 10_000); err != nil {
		t.Fatal(err)
	}
	if err := sys.Commit(fund); err != nil {
		t.Fatal(err)
	}

	var credited, debited int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 40; i++ {
				who := sys.Begin()
				var localCredit, localDebit int64
				var failed bool
				if rng.Intn(2) == 0 {
					amt := 1 + rng.Int63n(30)
					if err := a.Credit(who, amt); err != nil {
						failed = true
					} else {
						localCredit = amt
					}
				} else {
					amt := 1 + rng.Int63n(30)
					ok, err := a.Debit(who, amt)
					if err != nil {
						failed = true
					} else if ok {
						localDebit = amt
					}
				}
				if failed {
					_ = sys.Abort(who)
					continue
				}
				if err := sys.Commit(who); err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				credited += localCredit
				debited += localDebit
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	want := 10_000 + credited - debited
	if got := a.CommittedBalance(); got != want {
		t.Errorf("balance = %d, want %d (credited %d, debited %d)", got, want, credited, debited)
	}
}

func TestLockTypeString(t *testing.T) {
	for _, l := range []LockType{CreditLock, PostLock, DebitLock, OverdraftLock} {
		if l.String() == "" {
			t.Error("lock type must render")
		}
	}
}

func TestSystemLifecycleErrors(t *testing.T) {
	sys := newSys()
	who := sys.Begin()
	if err := sys.Commit(who); err != nil {
		t.Fatal(err)
	}
	if err := sys.Commit(who); err == nil {
		t.Error("double commit must fail")
	}
	if err := sys.Abort(who); err == nil {
		t.Error("abort after commit must fail")
	}
	if who.Name() == "" {
		t.Error("trans-id must have a name")
	}
}

// coreAccountConflict returns the generic runtime's Table V conflicts.
func coreAccountConflict() depend.Conflict {
	return depend.SymmetricClosure(depend.AccountDependency())
}
