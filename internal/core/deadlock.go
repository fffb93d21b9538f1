package core

import (
	"errors"
	"sync"
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
