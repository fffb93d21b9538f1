package core

import (
	"context"
	"slices"
	"sync"
	"time"

	"hybridcc/internal/depend"
	"hybridcc/internal/histories"
	"hybridcc/internal/spec"
)

// lockTable is an object's LOCK machine state (Section 4): the active
// transactions' lock records (a short slice, scanned without hashing), whose
// intentions double as their locks, the conflict check against them, and
// the calls waiting for a conflict to clear.  Its object's mutex guards it.
//
// The conflict check is compiled: conflict and table are the active
// policy's relation and its bitmask matrix (depend.CompiledTable, immutable
// after registration).  Each ground operation of the declared universe has
// a dense class index, each lock record carries a bitmask of the classes it
// holds, and "does op conflict with anything another transaction holds?" is
// one row-AND per active transaction instead of O(their-ops)
// dynamic-dispatch predicate calls; operations outside the universe take
// the predicate path.
//
// Blocked calls wait on a FIFO queue of per-waiter channels instead of a
// broadcast condition variable, each carrying the conflict-class mask of
// its blocked invocation, so a completion event signals only the waiters it
// could actually unblock — see waiter.
type lockTable struct {
	// sys supplies the lock wait, the waiter free list and the system-wide
	// counters, stats the object's; a table driven alone leaves both nil and
	// never waits.
	sys   *System
	stats *ObjectStats

	conflict depend.Conflict
	table    *depend.CompiledTable

	// active holds the lock records in grant order; release swaps in the last.
	active []*txLock

	// waitHead/waitTail is the FIFO queue of blocked calls.  Completion
	// events signal matching waiters in queue order; a woken waiter is
	// dequeued and re-enqueues at the tail if it blocks again.
	waitHead, waitTail *waiter
	waiterCount        int
}

// txLock is one active transaction's lock record at an object.
type txLock struct {
	tx *Tx // the transaction it names
	// ops is the intentions list; it doubles as the lock set.
	ops []spec.Op
	// bound is the transaction's lower bound on its eventual commit
	// timestamp (Section 6).
	bound histories.Timestamp
	// mask marks the conflict classes of held operations.
	mask depend.Mask
	// extra holds operations outside the compiled table's universe; they
	// take the dynamic-dispatch path.
	extra []spec.Op
	// view caches the transaction's view state: committed tail at viewGen
	// plus the first viewOps own intentions (see versions).
	view      spec.State
	viewGen   uint64
	viewOps   int
	viewValid bool
	// next links the record in its transaction's free list (Tx.freeLocks).
	next *txLock
}

// cachedView returns the record's view state when it is the view on the
// committed tail of generation gen, nil otherwise.
func (lk *txLock) cachedView(gen uint64) spec.State {
	if lk.viewValid && lk.viewGen == gen && lk.viewOps == len(lk.ops) {
		return lk.view
	}
	return nil
}

// lockOf returns tx's lock record, nil before its first grant here.
func (lt *lockTable) lockOf(tx *Tx) *txLock {
	if i := lt.indexOf(tx); i >= 0 {
		return lt.active[i]
	}
	return nil
}

// indexOf returns the slot of tx's lock record, -1 when it holds none here.
func (lt *lockTable) indexOf(tx *Tx) int {
	return slices.IndexFunc(lt.active, func(lk *txLock) bool { return lk.tx == tx })
}

// holders counts the transactions holding a lock here.
func (lt *lockTable) holders() int { return len(lt.active) }

// grant enters op, of class cls (negative: outside the table's universe),
// in tx's lock record lk — which joins the table with its first operation —
// and records bound as the record's timestamp lower bound.
func (lt *lockTable) grant(tx *Tx, lk *txLock, op spec.Op, cls int, bound histories.Timestamp) {
	if len(lk.ops) == 0 {
		lk.tx, lt.active = tx, append(lt.active, lk)
	}
	lk.ops = tx.intend(lk.ops, op)
	lk.bound = bound
	if cls >= 0 {
		lk.mask.Set(cls)
	} else {
		lk.extra = append(lk.extra, op)
	}
}

// release removes tx's lock record from the table and returns it, nil when
// tx holds nothing here.
func (lt *lockTable) release(tx *Tx) *txLock {
	i := lt.indexOf(tx)
	if i < 0 {
		return nil
	}
	lk, last := lt.active[i], len(lt.active)-1
	lt.active[i], lt.active[last] = lt.active[last], nil
	lt.active = lt.active[:last]
	return lk
}

// minBound returns the smallest lower bound among the lock records, a
// timestamp above every commit when there is none.
func (lt *lockTable) minBound() histories.Timestamp {
	horizon := histories.Timestamp(1<<62 - 1)
	for _, lk := range lt.active {
		horizon = min(horizon, lk.bound)
	}
	return horizon
}

// rowOfLocked returns op's class index and compiled conflict row, or
// (-1, nil) when op lies outside the table's universe — the caller then
// takes the dynamic-dispatch path.  Rows of classes are never nil.  tx,
// the caller, remembers the class (Tx.classOf).
func (lt *lockTable) rowOfLocked(tx *Tx, op spec.Op) (int, []uint64) {
	if cls := tx.classOf(lt.table, op); cls >= 0 {
		return cls, lt.table.Row(cls)
	}
	return -1, nil
}

// conflictsWithActiveRowLocked reports whether op conflicts with any
// operation in another active transaction's intentions list; row is op's
// compiled conflict row (nil when op lies outside the table's universe).
func (lt *lockTable) conflictsWithActiveRowLocked(tx *Tx, row []uint64, op spec.Op) bool {
	for _, lk := range lt.active {
		if lk.tx != tx && lt.holderConflictsLocked(lk, row, op) {
			return true
		}
	}
	return false
}

// holderConflictsLocked reports whether requesting op conflicts with any
// operation lk holds; row is op's compiled conflict row (nil when op has
// no class).  This is the single definition of the compiled-vs-fallback
// check: grant/deny and deadlock detection must agree on it.  With a row,
// the check is one row-AND against the held mask plus a predicate scan
// over the rare extras; only operations outside the universe fall back to
// the full dynamic-dispatch scan.
func (lt *lockTable) holderConflictsLocked(lk *txLock, row []uint64, op spec.Op) bool {
	if row != nil {
		return lk.mask.Intersects(row) || conflictsAny(lt.conflict, lk.extra, op)
	}
	return conflictsAny(lt.conflict, lk.ops, op)
}

// conflictsAny reports whether op conflicts with any held operation.
func conflictsAny(c depend.Conflict, held []spec.Op, op spec.Op) bool {
	for _, p := range held {
		if c.Conflicts(p, op) {
			return true
		}
	}
	return false
}

// activeHoldersLocked returns every other transaction holding a lock at
// the object — the waits-for edges of a call parked at the drain barrier
// of a pending policy switch, which completes only when all of them do.
func (lt *lockTable) activeHoldersLocked(tx *Tx) []*Tx {
	var holders []*Tx
	for _, lk := range lt.active {
		if lk.tx != tx {
			holders = append(holders, lk.tx)
		}
	}
	return holders
}

// blockersLocked returns the active transactions holding operations that
// conflict with some response of inv the caller could otherwise be granted
// — responses, legal in its view.  An empty result for a blocked call
// means it is blocked on data (a partial operation awaiting a commit),
// which creates no waits-for edge: such waits are resolved by commits, not
// lock releases.
func (lt *lockTable) blockersLocked(tx *Tx, inv spec.Invocation, responses []string) []*Tx {
	var holders []*Tx
	for _, lk := range lt.active {
		for _, r := range responses {
			op := inv.With(r)
			if _, row := lt.rowOfLocked(tx, op); lk.tx != tx && lt.holderConflictsLocked(lk, row, op) {
				holders = append(holders, lk.tx) // once: on to the next holder
				break
			}
		}
	}
	return holders
}

// wakeMaskLocked captures the wakeup condition of a call of inv that just
// blocked.  dataBlocked marks calls with no legal response (only a commit
// can enable one); unclassed marks calls with candidate responses outside
// the table's universe (their conflicts are invisible to masks).
func (lt *lockTable) wakeMaskLocked(inv spec.Invocation, dataBlocked, unclassed bool) (depend.Mask, bool, bool) {
	mask, covered := lt.table.BlockMask(inv)
	// Outside the declared universe the mask cannot bound the responses a
	// state change may enable, so state-changing events (commits) wake
	// conservatively; lock releases stay targeted through the mask.
	return mask, dataBlocked || !covered, unclassed
}

// waiter is one blocked call on the object's wait queue.  The wake rule on
// a completion event of transaction lk is:
//
//	allEvents ∨ (commit ∧ anyCommit) ∨ lk.extra ≠ ∅ ∨ lk.mask ∩ mask ≠ ∅
//
// mask is the blocked invocation's conflict-row union (BlockMask): any
// completion releasing a class that conflicts with some response of the
// invocation re-checks the waiter, and lk.extra covers held operations
// outside the table's universe.  anyCommit marks waiters whose response
// set can change with the state in ways the mask cannot bound: calls
// blocked on data (no legal response yet) and invocations outside the
// declared universe (a commit may enable a response the table has no
// class for).  allEvents marks waiters that wait on transaction completion
// as such, whatever its classes: readers waiting out commit windows, and
// calls with candidate responses outside the table's universe.
type waiter struct {
	ch        chan struct{}
	mask      depend.Mask
	anyCommit bool
	allEvents bool

	next, prev *waiter
	queued     bool
}

// enqueueWaiterLocked appends w to the wait queue.
func (lt *lockTable) enqueueWaiterLocked(w *waiter) {
	w.queued = true
	w.next, w.prev = nil, lt.waitTail
	if lt.waitTail != nil {
		lt.waitTail.next = w
	} else {
		lt.waitHead = w
	}
	lt.waitTail = w
	lt.waiterCount++
	if int64(lt.waiterCount) > lt.stats.waiterHWM.Load() {
		lt.stats.waiterHWM.Store(int64(lt.waiterCount))
	}
}

// dequeueWaiterLocked unlinks w if it is still queued (a signalling
// completion event dequeues waiters itself).
func (lt *lockTable) dequeueWaiterLocked(w *waiter) {
	if !w.queued {
		return
	}
	w.queued = false
	if w.prev != nil {
		w.prev.next = w.next
	} else {
		lt.waitHead = w.next
	}
	if w.next != nil {
		w.next.prev = w.prev
	} else {
		lt.waitTail = w.prev
	}
	w.next, w.prev = nil, nil
	lt.waiterCount--
}

// callWait is the state of one call's waits, all of it lazy: the grant fast
// path pays for none of it (the waiter comes from the system free list, so
// even the blocked path stops allocating at steady state).  One timer
// serves the whole call — armed at the first wait, it fires once at the
// absolute deadline.
type callWait struct {
	deadline time.Time
	timer    *time.Timer
	w        *waiter
}

// waiter returns the call's waiter node, drawing it on first use.
func (cw *callWait) waiter(s *System) *waiter {
	if cw.w == nil {
		cw.w = s.getWaiter()
	}
	return cw.w
}

// release stops the timer and recycles the waiter, if the call ever waited.
func (cw *callWait) release(s *System) {
	if cw.timer != nil {
		cw.timer.Stop()
	}
	if cw.w != nil {
		s.putWaiter(cw.w)
	}
}

// waitResult is how one waitLocked ended.
type waitResult int

const (
	// waitWoke: the deadline timer fired.  The caller re-checks once more;
	// its next waitLocked reports the timeout.
	waitWoke waitResult = iota
	waitSignalled
	waitTimedOut
	waitCancelled
)

// waitLocked is the wait loop's body, shared by Call and ReadCall: park on
// cw's waiter (whose wake condition the caller has set) until a completion
// event signals it, the call's LockWait deadline passes, or ctx is
// cancelled.  Called with mu, the object mutex, held; it releases mu while
// parked and returns with it held and the waiter dequeued.
func (lt *lockTable) waitLocked(mu *sync.Mutex, cw *callWait, ctx context.Context) waitResult {
	s := lt.sys
	if cw.deadline.IsZero() {
		cw.deadline = time.Now().Add(s.opts.LockWait)
	} else if !time.Now().Before(cw.deadline) {
		s.stats.Timeouts.Add(1)
		lt.stats.timeouts.Add(1)
		return waitTimedOut
	}
	if cw.timer == nil {
		cw.timer = time.NewTimer(time.Until(cw.deadline))
	}
	w := cw.waiter(s)
	lt.enqueueWaiterLocked(w)
	s.stats.Waits.Add(1)
	lt.stats.waits.Add(1)
	start := time.Now()
	mu.Unlock()
	res := waitWoke
	select {
	case <-w.ch:
		res = waitSignalled
	case <-cw.timer.C:
	case <-ctx.Done():
		res = waitCancelled
	}
	s.stats.WaitNanos.Add(int64(time.Since(start)))
	mu.Lock()
	lt.dequeueWaiterLocked(w)
	// A completion event may have signalled concurrently with the timer or
	// cancellation; drain so a later enqueue starts clean, and report the
	// signal so the caller's re-derivation accounting sees it.
	select {
	case <-w.ch:
		if res == waitWoke {
			res = waitSignalled
		}
	default:
	}
	return res
}

// wakeScanLocked signals — in FIFO order — every waiter a completion event
// could unblock, dequeueing each signalled waiter: mask is the completing
// class set (one aborting transaction's, or the union over a commit batch),
// hasExtra marks held operations without a class (their conflicts are
// invisible to masks, so every mask-filtered waiter must re-check), wakeAll
// bypasses the filters entirely, and isCommit distinguishes commits (which
// change the committed tail and so can enable state-blocked waiters) from
// aborts (which only release locks).  With no waiters the walk is free: the
// common uncontended completion signals nobody, where a condition-variable
// broadcast woke every blocked reader and writer on the object.
func (lt *lockTable) wakeScanLocked(mask depend.Mask, hasExtra, wakeAll, isCommit bool) {
	if lt.waitHead == nil {
		return
	}
	var wakeups int64
	for w := lt.waitHead; w != nil; {
		next := w.next
		wake := wakeAll || w.allEvents || (isCommit && w.anyCommit) ||
			hasExtra || mask.Intersects(w.mask)
		if wake {
			lt.dequeueWaiterLocked(w)
			select {
			case w.ch <- struct{}{}:
			default:
			}
			wakeups++
		}
		w = next
	}
	if wakeups > 0 {
		lt.stats.wakeups.Add(wakeups)
		lt.sys.stats.Wakeups.Add(wakeups)
	}
}
