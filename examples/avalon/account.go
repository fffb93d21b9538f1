package avalon

import (
	"fmt"
	"sync"
	"time"

	"hybridcc/internal/histories"
	"hybridcc/internal/tstamp"
)

// System plays the part of the Avalon runtime: it issues trans-ids,
// assigns commit timestamps from a logical clock, and calls the commit and
// abort operations of every atomic object a transaction touched.
type System struct {
	src      *tstamp.Source
	whenWait time.Duration

	mu      sync.Mutex
	txSeq   int
	touched map[*TransID]map[*Account]bool
	bounds  map[*TransID]int64 // max committed timestamp observed per tx
}

// NewSystem returns an Avalon-style runtime.  whenWait bounds how long a
// when-statement retries before ErrWhenTimeout (zero means one second).
func NewSystem(whenWait time.Duration) *System {
	if whenWait == 0 {
		whenWait = time.Second
	}
	return &System{
		src:      tstamp.NewSource(),
		whenWait: whenWait,
		touched:  make(map[*TransID]map[*Account]bool),
		bounds:   make(map[*TransID]int64),
	}
}

// Begin issues a fresh trans-id.
func (s *System) Begin() *TransID {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.txSeq++
	return &TransID{name: fmt.Sprintf("A%d", s.txSeq)}
}

// touch records that who executed an operation at acct and observed the
// given committed timestamp bound.
func (s *System) touch(who *TransID, acct *Account, observed int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	set, ok := s.touched[who]
	if !ok {
		set = make(map[*Account]bool)
		s.touched[who] = set
	}
	set[acct] = true
	if observed > s.bounds[who] {
		s.bounds[who] = observed
	}
}

// Commit commits who everywhere it executed: a timestamp above every
// observed bound is drawn from the logical clock and the objects'
// commit operations run, exactly as the Avalon runtime would call them.
func (s *System) Commit(who *TransID) error {
	who.mu.Lock()
	if who.committed || who.aborted {
		who.mu.Unlock()
		return fmt.Errorf("avalon: %s already completed", who.name)
	}
	who.mu.Unlock()

	s.mu.Lock()
	accounts := make([]*Account, 0, len(s.touched[who]))
	for a := range s.touched[who] {
		accounts = append(accounts, a)
	}
	lower := s.bounds[who]
	delete(s.touched, who)
	delete(s.bounds, who)
	s.mu.Unlock()

	ts := int64(s.src.Next(histories.Timestamp(lower)))
	who.mu.Lock()
	who.committed = true
	who.ts = ts
	who.mu.Unlock()

	for _, a := range accounts {
		a.Commit(who)
	}
	return nil
}

// Abort aborts who everywhere it executed.
func (s *System) Abort(who *TransID) error {
	who.mu.Lock()
	if who.committed || who.aborted {
		who.mu.Unlock()
		return fmt.Errorf("avalon: %s already completed", who.name)
	}
	who.aborted = true
	who.mu.Unlock()

	s.mu.Lock()
	accounts := make([]*Account, 0, len(s.touched[who]))
	for a := range s.touched[who] {
		accounts = append(accounts, a)
	}
	delete(s.touched, who)
	delete(s.bounds, who)
	s.mu.Unlock()

	for _, a := range accounts {
		a.Abort(who)
	}
	return nil
}

// Account is the appendix's `class account : public subatomic`.
type Account struct {
	sys *System

	mu   sync.Mutex // the object's short-term mutual exclusion lock
	cond *sync.Cond // the when-statement's retry signal

	locks      *lockTab   // locks for operations
	intentions *intentTab // intentions list
	bal        int64      // committed balance of forgotten transactions
	committed  idHeap     // committed but unforgotten transactions
	clock      *TransID   // most recent transaction to commit (nil: none)
	bounds     *boundTab  // earliest possible commit times
}

// NewAccount constructs an account, installing the Table V lock conflicts
// exactly as the appendix's constructor does.
func (s *System) NewAccount() *Account {
	a := &Account{
		sys:        s,
		locks:      newLockTab(),
		intentions: newIntentTab(),
		bal:        0,
	}
	a.cond = sync.NewCond(&a.mu)
	a.bounds = newBoundTab()
	// Set up lock conflicts.
	a.locks.define(CreditLock, OverdraftLock)
	a.locks.define(PostLock, OverdraftLock)
	a.locks.define(DebitLock, DebitLock)
	return a
}

// when runs body under the object lock as soon as guard is true,
// re-evaluating after every completion event — the appendix's `when`
// statement.  It returns ErrWhenTimeout when the guard stays false.
func (a *Account) when(guard func() bool, body func()) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	deadline := time.Now().Add(a.sys.whenWait)
	for !guard() {
		if !time.Now().Before(deadline) {
			return ErrWhenTimeout
		}
		timer := time.AfterFunc(time.Until(deadline), func() {
			a.mu.Lock()
			a.cond.Broadcast()
			a.mu.Unlock()
		})
		a.cond.Wait()
		timer.Stop()
	}
	body()
	return nil
}

// observedClock returns the committed timestamp the caller observes (0
// when nothing has committed here).  Callers hold a.mu.
func (a *Account) observedClock() int64 {
	if a.clock == nil {
		return 0
	}
	return a.clock.timestamp()
}

// Credit adds amt to the account on behalf of who.
func (a *Account) Credit(who *TransID, amt int64) error {
	return a.when(
		func() bool { return !a.locks.conflict(CreditLock, who) },
		func() {
			a.locks.grant(CreditLock, who)
			i := a.intentions.lookup(who)
			i.add += amt
			a.intentions.insert(who, i)
			a.noteBound(who)
		})
}

// Post multiplies the balance by factor k ≥ 1 on behalf of who.
func (a *Account) Post(who *TransID, k int64) error {
	return a.when(
		func() bool { return !a.locks.conflict(PostLock, who) },
		func() {
			a.locks.grant(PostLock, who)
			i := a.intentions.lookup(who)
			i.mul *= k
			i.add *= k
			a.intentions.insert(who, i)
			a.noteBound(who)
		})
}

// Debit attempts to withdraw amt; it returns true on success and false for
// an overdraft (balance unchanged) — the appendix's `whenswitch` on
// sufficient().
func (a *Account) Debit(who *TransID, amt int64) (bool, error) {
	var succeeded bool
	err := a.when(
		func() bool { return a.sufficient(who, amt) != maybe },
		func() {
			if a.sufficient(who, amt) == yes {
				a.locks.grant(DebitLock, who)
				i := a.intentions.lookup(who)
				i.add -= amt
				a.intentions.insert(who, i)
				a.noteBound(who)
				succeeded = true
				return
			}
			a.locks.grant(OverdraftLock, who)
			a.noteBound(who)
			succeeded = false
		})
	return succeeded, err
}

// sufficient is the appendix's internal status function: YES when the view
// covers the debit and the DEBIT_LOCK is free, NO when it does not and the
// OVERDRAFT_LOCK is free, MAYBE when lock conflicts leave the status
// ambiguous.  Callers hold a.mu.
func (a *Account) sufficient(who *TransID, amt int64) status {
	view := a.bal
	for _, t := range a.committed.ids { // committed, in timestamp order
		view = a.intentions.lookup(t).apply(view)
	}
	view = a.intentions.lookup(who).apply(view)
	if view >= amt && !a.locks.conflict(DebitLock, who) {
		return yes
	}
	if view < amt && !a.locks.conflict(OverdraftLock, who) {
		return no
	}
	return maybe
}

// noteBound records the caller's new lower bound and registers the touch
// with the runtime.  Callers hold a.mu.
func (a *Account) noteBound(who *TransID) {
	a.bounds.insert(who, a.clock)
	a.sys.touch(who, a, a.observedClock())
}

// Commit is called by the system when who commits: advance the clock,
// release locks, discard the bound, mark committed, and try to forget.
func (a *Account) Commit(who *TransID) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.clock == nil || a.clock.Less(who) {
		a.clock = who
	}
	a.locks.release(who)
	a.bounds.discard(who)
	a.committed.insert(who)
	a.forget()
	a.cond.Broadcast()
}

// Abort is called by the system when who aborts.
func (a *Account) Abort(who *TransID) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.locks.release(who)
	a.bounds.discard(who)
	a.intentions.discard(who)
	a.forget()
	a.cond.Broadcast()
}

// forget folds intentions of committed transactions serialized before the
// horizon into the committed balance — the appendix's forget().  Callers
// hold a.mu.
func (a *Account) forget() {
	horizon, unbounded := a.bounds.min()
	for !a.committed.empty() {
		if !unbounded {
			if horizon == nil || !a.committed.top().Less(horizon) {
				break
			}
		}
		t := a.committed.remove()
		a.bal = a.intentions.lookup(t).apply(a.bal)
		a.intentions.discard(t)
	}
}

// CommittedBalance returns the balance every committed transaction
// produces in timestamp order, for inspection and tests.
func (a *Account) CommittedBalance() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	view := a.bal
	for _, t := range a.committed.ids {
		view = a.intentions.lookup(t).apply(view)
	}
	return view
}

// UnforgottenLen reports how many committed transactions await folding.
func (a *Account) UnforgottenLen() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.committed.len()
}
