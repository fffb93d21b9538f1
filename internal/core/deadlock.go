package core

import (
	"errors"
	"sync"

	"hybridcc/internal/spec"
)

// ErrDeadlock reports that granting the caller's operation would close a
// waits-for cycle; the transaction should abort and retry.  Returned only
// when Options.DeadlockDetection is enabled — the paper's "usual remedies
// (e.g., timeout or detection)" for the deadlocks two-phase locking
// admits.
var ErrDeadlock = errors.New("hybridcc: deadlock detected")

// waitsFor is a system-wide waits-for graph: an edge T → U means active
// transaction T is blocked on a lock held by U.  Edges exist only while
// the waiter is inside a blocked Call; the victim policy is
// requester-aborts (the transaction that closes the cycle receives
// ErrDeadlock).
type waitsFor struct {
	mu    sync.Mutex
	edges map[*Tx]map[*Tx]bool
}

// set replaces the waiter's outgoing edges and reports whether doing so
// closes a cycle through the waiter.
func (w *waitsFor) set(waiter *Tx, holders []*Tx) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.edges == nil {
		w.edges = make(map[*Tx]map[*Tx]bool)
	}
	out := make(map[*Tx]bool, len(holders))
	for _, h := range holders {
		if h != waiter {
			out[h] = true
		}
	}
	w.edges[waiter] = out
	return w.reachesLocked(waiter, waiter, make(map[*Tx]bool))
}

// clear removes the waiter's outgoing edges.
func (w *waitsFor) clear(waiter *Tx) {
	w.mu.Lock()
	delete(w.edges, waiter)
	w.mu.Unlock()
}

// reachesLocked reports whether target is reachable from cur.
func (w *waitsFor) reachesLocked(cur, target *Tx, seen map[*Tx]bool) bool {
	for next := range w.edges[cur] {
		if next == target {
			return true
		}
		if seen[next] {
			continue
		}
		seen[next] = true
		if w.reachesLocked(next, target, seen) {
			return true
		}
	}
	return false
}

// blockersLocked returns the active transactions holding operations that
// conflict with some response the caller could otherwise be granted for
// inv, given the caller's current view state.  Callers hold o.mu.  An
// empty result for a blocked call means it is blocked on data (a partial
// operation awaiting a commit), which creates no waits-for edge: such
// waits are resolved by commits, not lock releases.
// activeHoldersLocked returns every other transaction holding a lock at
// the object — the waits-for edges of a call parked at the drain barrier
// of a pending policy switch, which completes only when all of them do.
func (o *Object) activeHoldersLocked(tx *Tx) []*Tx {
	var holders []*Tx
	for other := range o.active {
		if other != tx {
			holders = append(holders, other)
		}
	}
	return holders
}

func (o *Object) blockersLocked(tx *Tx, inv spec.Invocation, state spec.State) []*Tx {
	var holders []*Tx
	seen := make(map[*Tx]bool)
	for _, r := range o.sp.Responses(state, inv) {
		op := inv.With(r)
		_, row := o.rowOfLocked(op)
		for other, lk := range o.active {
			if other == tx || seen[other] {
				continue
			}
			if o.holderConflictsLocked(lk, row, op) {
				seen[other] = true
				holders = append(holders, other)
			}
		}
	}
	return holders
}
