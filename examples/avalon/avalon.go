// Package avalon reconstructs the appendix of Herlihy & Weihl: the
// Avalon/C++ implementation of the Account data type, transliterated to
// Go.  Nothing in the engine imports it; it is kept as an example beside
// the generic runtime (internal/core) because the appendix demonstrates two
// techniques the generic runtime does not use:
//
//   - Affine intentions: a transaction's net effect on the balance is the
//     closed form b ↦ mul·b + add, so an intentions *list* collapses to two
//     integers (the appendix's `struct intent {float mul; float add;}`).
//
//   - A hand-built lock table over operation modes (CREDIT_LOCK,
//     POST_LOCK, DEBIT_LOCK, OVERDRAFT_LOCK) with exactly the Table V
//     conflicts installed in the constructor, and the `when`/`whenswitch`
//     guarded-command retry discipline implemented with a condition
//     variable.
//
// The trans-id, lock table, intentions table, bound table, and committed
// heap mirror the appendix's classes trans_id, lock_tab, intent_tab,
// bound_tab, and id_heap; Account.forget is the appendix's horizon-based
// compaction.  Tests verify behavioural equivalence with the generic
// runtime on shared schedules.
package avalon

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// LockType enumerates the account's lock modes (the appendix's lock_type
// enumeration).
type LockType int

// Lock modes.
const (
	CreditLock LockType = iota
	PostLock
	DebitLock
	OverdraftLock
)

// String implements fmt.Stringer.
func (l LockType) String() string {
	switch l {
	case CreditLock:
		return "CREDIT_LOCK"
	case PostLock:
		return "POST_LOCK"
	case DebitLock:
		return "DEBIT_LOCK"
	case OverdraftLock:
		return "OVERDRAFT_LOCK"
	}
	return fmt.Sprintf("LockType(%d)", int(l))
}

// TransID identifies a transaction (the appendix's trans_id).  Ordering
// between committed transactions follows commit timestamps; Less(active)
// is what the bound table uses to compute horizons.
type TransID struct {
	name string

	mu        sync.Mutex
	committed bool
	aborted   bool
	ts        int64
}

// Name returns the transaction's name.
func (t *TransID) Name() string { return t.name }

// timestamp returns the commit timestamp; it panics for uncommitted ids
// (the appendix compares only committed ids and bounds, which Lemma 18
// shows are committed ids).
func (t *TransID) timestamp() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.committed {
		panic("avalon: timestamp of uncommitted trans_id " + t.name)
	}
	return t.ts
}

// Less reports whether t is serialized before u: the appendix's
// `operator<` restricted to the comparisons the Account makes (committed
// vs committed).
func (t *TransID) Less(u *TransID) bool { return t.timestamp() < u.timestamp() }

// intent is the appendix's affine intention: the transaction's net effect
// replaces the balance b with mul·b + add.
type intent struct {
	mul int64
	add int64
}

// identityIntent is the intention of a transaction that has done nothing.
func identityIntent() intent { return intent{mul: 1, add: 0} }

// apply applies the intention to a balance.
func (i intent) apply(b int64) int64 { return i.mul*b + i.add }

// lockTab is the appendix's lock_tab: which transactions hold which lock
// modes, with a symmetric conflict matrix installed by define.
type lockTab struct {
	conflicts map[[2]LockType]bool
	held      map[*TransID]map[LockType]bool
}

func newLockTab() *lockTab {
	return &lockTab{
		conflicts: make(map[[2]LockType]bool),
		held:      make(map[*TransID]map[LockType]bool),
	}
}

// define registers a (symmetric) conflict between two lock modes.
func (l *lockTab) define(a, b LockType) {
	l.conflicts[[2]LockType{a, b}] = true
	l.conflicts[[2]LockType{b, a}] = true
}

// conflict reports whether granting mode to who would conflict with a lock
// held by another transaction.
func (l *lockTab) conflict(mode LockType, who *TransID) bool {
	for holder, modes := range l.held {
		if holder == who {
			continue
		}
		for m := range modes {
			if l.conflicts[[2]LockType{m, mode}] {
				return true
			}
		}
	}
	return false
}

// grant gives who a lock in the given mode.
func (l *lockTab) grant(mode LockType, who *TransID) {
	modes, ok := l.held[who]
	if !ok {
		modes = make(map[LockType]bool)
		l.held[who] = modes
	}
	modes[mode] = true
}

// release discards all of who's locks.
func (l *lockTab) release(who *TransID) { delete(l.held, who) }

// intentTab is the appendix's intent_tab: transaction → affine intention.
type intentTab struct {
	intents map[*TransID]intent
}

func newIntentTab() *intentTab { return &intentTab{intents: make(map[*TransID]intent)} }

// lookup returns who's intention (identity when none exists).
func (t *intentTab) lookup(who *TransID) intent {
	if i, ok := t.intents[who]; ok {
		return i
	}
	return identityIntent()
}

// insert binds who to an intention.
func (t *intentTab) insert(who *TransID, i intent) { t.intents[who] = i }

// discard removes who's intention.
func (t *intentTab) discard(who *TransID) { delete(t.intents, who) }

// boundTab is the appendix's bound_tab: active transaction → the latest
// committed transaction guaranteed to serialize before it.  A nil bound
// (the transaction ran before anything committed here) is "bottom": it
// pins the horizon completely.
type boundTab struct {
	bounds map[*TransID]*TransID
}

func newBoundTab() *boundTab { return &boundTab{bounds: make(map[*TransID]*TransID)} }

// insert registers a new lower bound for who (nil = bottom).
func (b *boundTab) insert(who, bound *TransID) { b.bounds[who] = bound }

// discard removes who's bound.
func (b *boundTab) discard(who *TransID) { delete(b.bounds, who) }

// min returns the horizon: the earliest lower bound among active
// transactions.  unbounded is true when there are no active transactions
// (everything committed is foldable); a nil horizon with unbounded false
// means some active transaction is pinned at bottom (nothing is foldable).
func (b *boundTab) min() (horizon *TransID, unbounded bool) {
	if len(b.bounds) == 0 {
		return nil, true
	}
	for _, bound := range b.bounds {
		if bound == nil {
			return nil, false
		}
		if horizon == nil || bound.Less(horizon) {
			horizon = bound
		}
	}
	return horizon, false
}

// idHeap is the appendix's id_heap: committed-but-unforgotten trans-ids
// ordered by commit timestamp.
type idHeap struct {
	ids []*TransID
}

// insert adds a committed trans-id, keeping timestamp order.
func (h *idHeap) insert(who *TransID) {
	i := sort.Search(len(h.ids), func(i int) bool { return who.Less(h.ids[i]) })
	h.ids = append(h.ids, nil)
	copy(h.ids[i+1:], h.ids[i:])
	h.ids[i] = who
}

// top returns the oldest committed trans-id.
func (h *idHeap) top() *TransID { return h.ids[0] }

// remove pops the oldest committed trans-id.
func (h *idHeap) remove() *TransID {
	t := h.ids[0]
	h.ids = append([]*TransID(nil), h.ids[1:]...)
	return t
}

// empty reports whether the heap is empty.
func (h *idHeap) empty() bool { return len(h.ids) == 0 }

// len reports the number of unforgotten transactions, for the compaction
// tests.
func (h *idHeap) len() int { return len(h.ids) }

// status is the appendix's enum {YES, NO, MAYBE} returned by sufficient.
type status int

const (
	yes status = iota
	no
	maybe
)

// ErrWhenTimeout reports that a guarded command (`when` statement) did not
// become enabled before the configured timeout — the deadlock remedy.
var ErrWhenTimeout = errors.New("avalon: when-statement timed out")
