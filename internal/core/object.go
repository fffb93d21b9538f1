package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"hybridcc/internal/ccpolicy"
	"hybridcc/internal/depend"
	"hybridcc/internal/histories"
	"hybridcc/internal/spec"
)

// Object is a hybrid atomic object: typed shared data managed by the
// paper's locking algorithm.  It is two parts under one mutex — the
// lockTable (Section 4's LOCK machine: intentions as locks, conflict checks
// and waits) and the versions (Section 6's forgetting and Section 7's old
// versions) — and the glue that drives both: the policy set and a pending
// switch, Call's grant loop, and the commit and abort of a transaction's
// lock record into the committed state.
//
// Each active transaction's view state is materialized incrementally under
// the mutex: the grant extends it in place, a merge adopts it as the new
// committed tail, and it is replayed only when a commit lands under it (see
// versions for the generation guards).
//
// What a lock-free read loads fills the first 64 bytes, and the size is a
// multiple of 64: a read of an object another core just committed misses
// on one line of it (TestObjectLayout).
type Object struct {
	sys *System
	// readSp is sp's read capability, nil when it has none: resolved once
	// here so ReadCall pays no interface assertion per read.
	readSp spec.ReadSpec
	versions
	lockTable

	name histories.ObjID
	// ord numbers the object on sys: commits visit and log objects by it.
	ord int

	// policies is the object's precompiled policy set; policy the active
	// member, whose relation and table the lock table checks against;
	// pending a requested switch awaiting a quiescent instant (no lock
	// holders).  All guarded by mu.
	//
	// Switch quiescence invariant: the active policy changes only while no
	// transaction holds a lock here.  Held-class masks (txLock.mask,
	// waiter.mask) are class indices into the table that granted them and
	// are meaningless against any other; with the active set empty no lock
	// mask exists, and every parked waiter is woken by the install so it
	// re-derives and re-captures its mask from the new table.  While a
	// switch is pending, first-time grants are held back (the drain
	// barrier in Call) but existing holders always proceed — denying a
	// holder would prevent the drain from ever completing.
	policies *ccpolicy.Set
	policy   *ccpolicy.Policy
	pending  *ccpolicy.Policy

	mu sync.Mutex

	// events counts completion events (grants, commits, aborts) — the
	// wakeup conditions of the appendix's "when" statement.  A blocked
	// call whose event count is unchanged across a wakeup re-waits
	// without re-deriving responses.
	events uint64

	stats ObjectStats
	_     [24]byte // to 448 bytes
}

// Name returns the object's identifier.
func (o *Object) Name() histories.ObjID { return o.name }

// System returns the System the object is registered with — for a sharded
// cluster, the shard that owns it.  Distributed transactions route each
// operation to the branch on this System.
func (o *Object) System() *System { return o.sys }

// Spec returns the object's serial specification.
func (o *Object) Spec() spec.Spec { return o.sp }

// Stats returns a snapshot of the object's counters.
func (o *Object) Stats() ObjectStatsSnapshot {
	o.mu.Lock()
	defer o.mu.Unlock()
	snap := o.stats.snapshot(len(o.unforgotten), o.holders())
	snap.Scheme = o.policy.Scheme
	snap.PendingSwitch = o.pending != nil
	return snap
}

// Call invokes an operation on behalf of tx and blocks until a response is
// grantable: legal in tx's view and conflict-free against other active
// transactions.  It returns ErrTimeout when the wait exceeds
// Options.LockWait, ErrTxDone when tx has completed, and an error wrapping
// the context's error when tx's context is cancelled mid-wait.
func (o *Object) Call(tx *Tx, inv spec.Invocation) (string, error) {
	if o.sys.remote != nil {
		return o.remoteCall(tx, inv)
	}
	if err := tx.enter(); err != nil {
		return "", err
	}
	defer tx.exit()
	if err := tx.ctx.Err(); err != nil {
		return "", fmt.Errorf("hybridcc: %s on %s: %w", inv, o.name, err)
	}
	if o.sys.opts.DeadlockDetection {
		defer o.sys.wfg.clear(tx)
	}
	var cw callWait
	defer cw.release(o.sys)
	return o.call(tx, inv, &cw)
}

// call is Call's grant loop, which holds no defer: with its returns, they
// would outnumber what the compiler open-codes in one function.
func (o *Object) call(tx *Tx, inv spec.Invocation, cw *callWait) (string, error) {
	ctx, detect := tx.ctx, o.sys.opts.DeadlockDetection
	attempted, signalled := false, false
	var seen uint64
	o.mu.Lock()
	for {
		// Re-derive responses only when a completion event has landed
		// since the last attempt: grantability depends solely on the
		// committed tail, own intentions, and other transactions' held
		// operations, all of which change only through grant, commit, and
		// abort.
		if !attempted || o.events != seen {
			attempted = true
			// tx's lock record, nil before its first grant here: one lookup
			// per attempt (a wait releases the mutex in between).
			lk := o.lockOf(tx)
			// A pending policy switch installs at the first quiescent
			// instant; a call that holds no lock here yet can be that
			// instant too (the drain may already be complete).
			if o.pending != nil && lk == nil {
				o.maybeInstallPendingLocked()
			}
			seen = o.events
			// What a blocked call wakes on — every event, unless the attempt
			// below narrows it — and, for deadlock detection, whom it awaits.
			var mask depend.Mask
			anyCommit, allEvents := false, true
			var holders []*Tx
			if o.pending != nil && lk == nil {
				// Drain barrier: a switch is pending and this transaction
				// holds nothing here, so granting it a first operation
				// would extend the drain indefinitely.  Park until a
				// completion event empties the active set and installs the
				// new policy (existing holders pass the barrier — denying
				// them could never drain).  Any completion can matter, and
				// the barrier waits on every current holder, whatever it
				// holds: the drain finishes only when all complete.
				if detect {
					holders = o.activeHoldersLocked(tx)
				}
			} else {
				state := o.viewStateLocked(tx, lk)
				responses := o.sp.Responses(state, inv)
				unclassed := false
				for _, r := range responses {
					op := inv.With(r)
					cls, row := o.rowOfLocked(tx, op)
					if row == nil {
						unclassed = true
					}
					if o.conflictsWithActiveRowLocked(tx, row, op) {
						o.stats.conflicts.Add(1)
						continue
					}
					ev := o.grantLocked(tx, lk, op, cls, state)
					o.mu.Unlock()
					o.sys.flushEvents(ev)
					return r, nil
				}
				// Blocked: either a lock conflict or a partial operation with
				// no enabled response.  Capture the wakeup mask and wait for a
				// completion event that could matter — the appendix's "when"
				// statement, with the herd filtered out.
				mask, anyCommit, allEvents = o.wakeMaskLocked(inv, len(responses) == 0, unclassed)
				if detect {
					holders = o.blockersLocked(tx, inv, responses)
				}
			}
			if signalled {
				signalled = false
				o.stats.spurious.Add(1)
				o.sys.stats.SpuriousWakeups.Add(1)
			}
			w := cw.waiter(o.sys)
			w.mask, w.anyCommit, w.allEvents = mask, anyCommit, allEvents
			if len(holders) > 0 && o.sys.wfg.set(tx, holders) {
				o.stats.deadlocks.Add(1)
				o.mu.Unlock()
				return "", fmt.Errorf("%w: %s on %s", ErrDeadlock, inv, o.name)
			}
		}
		switch o.waitLocked(&o.mu, cw, ctx) {
		case waitSignalled:
			signalled = true
		case waitTimedOut:
			o.mu.Unlock()
			return "", fmt.Errorf("%w: %s on %s", ErrTimeout, inv, o.name)
		case waitCancelled:
			o.mu.Unlock()
			return "", fmt.Errorf("hybridcc: %s on %s: %w", inv, o.name, ctx.Err())
		}
	}
}

// grantLocked grants op to tx: the lock table enters it in tx's lock
// record with the object's clock as the record's timestamp lower bound,
// the cached view extends by it, and the event pair is staged.  lk is tx's
// lock record, nil on its first grant here — when a record is drawn from
// the free list and the object left in tx.joined for the call's exit; cls
// is op's class (negative: outside the universe); view must be tx's
// current view state (op's response was derived from it).  The returned
// buffer (backed by tx's scratch, empty without a sink) is flushed by the
// caller after releasing o.mu.
func (o *Object) grantLocked(tx *Tx, lk *txLock, op spec.Op, cls int, view spec.State) []pendingEvent {
	next, ok := o.sp.Step(view, op)
	if !ok {
		panic(fmt.Sprintf("hybridcc: granted response %s illegal at %s", op, o.name))
	}
	if lk == nil {
		lk = o.sys.getLock(tx)
		tx.joined = o
	}
	o.grant(tx, lk, op, cls, o.clock)
	tx.bound = max(tx.bound, o.clock)
	lk.view, lk.viewGen, lk.viewOps, lk.viewValid = next, o.commitGen, len(lk.ops), true
	o.events++
	o.stats.granted.Add(1)
	var ev []pendingEvent
	if o.sys.opts.Sink != nil {
		id := tx.ID()
		ev = o.sys.stage(tx.ev[:0], histories.InvokeEvent(id, o.name, op.Inv()))
		ev = o.sys.stage(ev, histories.RespondEvent(id, o.name, op.Res))
		tx.ev = ev
	}
	return ev
}

// viewStateLocked computes the state of tx's view: the committed tail, then
// the intentions in its lock record lk (nil before its first grant).  The
// result is cached per transaction and reused verbatim while no commit
// lands and no own operation is granted.  Views of reachable runtime states
// are always legal; an illegal view is a bug, hence the panic.
func (o *Object) viewStateLocked(tx *Tx, lk *txLock) spec.State {
	if lk == nil {
		return o.committedTailLocked()
	}
	if view := lk.cachedView(o.commitGen); view != nil {
		return view
	}
	state, ok := spec.StepFrom(o.sp, o.committedTailLocked(), lk.ops...)
	if !ok {
		panic(fmt.Sprintf("hybridcc: illegal view for %s at %s", tx.id, o.name))
	}
	lk.view, lk.viewGen, lk.viewOps, lk.viewValid = state, o.commitGen, len(lk.ops), true
	return state
}

// commit merges t's intentions (commitTx's step 6) at this object in one
// critical section, unless a reader already has (mergeBelowLocked).  The
// new tail is published into snap before the caller releases its
// windowWriters count: a lock-free reader that sees the count at zero must
// also see this commit in the snapshot.  Staged events are appended to ev
// and flushed by the caller after the critical section.
func (o *Object) commit(t *Tx, e committedEntry, ev []pendingEvent, snap *tailSnapshot) []pendingEvent {
	o.mu.Lock()
	if lk := o.release(t); lk != nil {
		ev = o.commitLocked(lk, e, ev, snap, true)
	}
	if o.pending != nil {
		o.maybeInstallPendingLocked()
	}
	o.mu.Unlock()
	return ev
}

// commitLocked merges lk, a committed transaction's released lock record,
// at e.ts — adopting the view its last grant cached when no commit landed
// since — then runs the fold, the publication into snap and the waiter
// scan, the wakeup filter being the record's own held-class mask.  e
// carries the timestamp, identifier and participant count; the record
// supplies the operations.  own is putLock's.
func (o *Object) commitLocked(lk *txLock, e committedEntry, ev []pendingEvent, snap *tailSnapshot, own bool) []pendingEvent {
	e.ops = lk.ops
	o.mergeLocked(e, lk.cachedView(o.commitGen))
	o.events++
	if o.sys.opts.Sink != nil {
		ev = o.sys.stage(ev, histories.CommitEvent(e.tx, o.name, e.ts))
	}
	o.compactLocked()
	o.publishLocked(snap)
	o.stats.commits.Add(1)
	o.wakeScanLocked(lk.mask, len(lk.extra) > 0, false, true)
	o.sys.putLock(lk, own)
	return ev
}

// abort discards tx's intentions, releasing its locks.  The committed tail
// is untouched, so other transactions' cached views stay valid.  own is
// putLock's.
func (o *Object) abort(tx *Tx, own bool) {
	o.mu.Lock()
	lk := o.release(tx)
	o.events++
	if o.compactLocked() > 0 { // an abort can advance the horizon
		o.publishLocked(new(tailSnapshot))
	}
	o.stats.aborts.Add(1)
	var ev []pendingEvent
	if o.sys.opts.Sink != nil { // not into tx.ev: a call in flight stages there
		ev = o.sys.stage(nil, histories.AbortEvent(tx.ID(), o.name))
	}
	if lk == nil {
		o.wakeScanLocked(nil, false, true, false)
	} else {
		o.wakeScanLocked(lk.mask, len(lk.extra) > 0, false, false)
		o.sys.putLock(lk, own)
	}
	if o.pending != nil {
		o.maybeInstallPendingLocked()
	}
	o.mu.Unlock()
	o.sys.flushEvents(ev)
}

// compactLocked folds the committed entries below the horizon — the
// smallest lower bound among the lock records and the reader pins — unless
// compaction is disabled, and reports how many it folded; the caller
// republishes the tail snapshot when that is any.
func (o *Object) compactLocked() int {
	if o.sys.opts.DisableCompaction {
		return 0
	}
	n := o.forgetLocked(min(o.minBound(), o.sys.readers.minTS()))
	if n > 0 {
		o.stats.folds.Add(int64(n))
	}
	return n
}

// fold advances the fold frontier outside the commit path and returns the
// tail snapshot, republished if that folded anything, the frontier (the
// snapshot's version is exactly the effect of every committed transaction
// below it, and every unforgotten entry lies at or above it) and the
// retained entries.  The checkpointer calls it: a freshly recovered or
// quiescent object has folded nothing since its last commit (folding
// normally rides the commit path), so without this pass its image would
// hold almost nothing.
func (o *Object) fold() (*tailSnapshot, histories.Timestamp, []committedEntry) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.compactLocked() > 0 {
		o.publishLocked(new(tailSnapshot))
	}
	return o.tailSnap.Load(), o.folded, o.retained
}

// CommittedState returns the state all committed transactions produce in
// timestamp order.  It reflects only commits the object has learned about;
// use it for inspection and tests, not inside transactions.  Unavailable
// on a remote stub: the state lives in the serving shard's process (read
// it through a snapshot transaction instead).
func (o *Object) CommittedState() spec.State {
	if o.sys.remote != nil {
		panic(fmt.Sprintf("hybridcc: CommittedState of %s on a dialed cluster: committed state lives in the shard process; read it through Snapshot", o.name))
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.committedTailLocked()
}

// UnforgottenLen reports how many committed transactions await folding —
// the observable of the compaction experiments.
func (o *Object) UnforgottenLen() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.unforgotten)
}

// ObjectStats aggregates per-object counters, atomic so Stats reads them
// without the object mutex.  granted counts
// lock grants: a snapshot read takes no lock and writes nothing here.
type ObjectStats struct {
	granted   atomic.Int64
	conflicts atomic.Int64
	waits     atomic.Int64
	timeouts  atomic.Int64
	deadlocks atomic.Int64
	commits   atomic.Int64
	aborts    atomic.Int64
	folds     atomic.Int64
	wakeups   atomic.Int64
	spurious  atomic.Int64
	// waiterHWM is the wait queue's high-water mark (written under the
	// object mutex, read anywhere).
	waiterHWM atomic.Int64
	// schemeSwitches counts installed policy switches (written under the
	// object mutex, read anywhere).
	schemeSwitches atomic.Int64
}

// ObjectStatsSnapshot is an immutable copy of ObjectStats plus instant
// gauges.
type ObjectStatsSnapshot struct {
	// Granted counts lock grants — update-path calls; reads of read-only
	// transactions are in the System's Calls alone.
	Granted     int64
	Conflicts   int64
	Waits       int64
	Timeouts    int64
	Deadlocks   int64
	Commits     int64
	Aborts      int64
	Folds       int64
	Unforgotten int
	Active      int
	// Wakeups counts waiter signals delivered by this object's completion
	// events; SpuriousWakeups the subset that re-derived without granting;
	// WaiterHWM the most waiters ever queued at once.
	Wakeups         int64
	SpuriousWakeups int64
	WaiterHWM       int64
	// SchemeSwitches counts installed policy switches; Scheme is the
	// active policy's scheme name; PendingSwitch reports a requested
	// switch still draining toward its quiescent instant.
	SchemeSwitches int64
	Scheme         string
	PendingSwitch  bool
}

func (s *ObjectStats) snapshot(unforgotten, active int) ObjectStatsSnapshot {
	return ObjectStatsSnapshot{
		Granted:         s.granted.Load(),
		Conflicts:       s.conflicts.Load(),
		Waits:           s.waits.Load(),
		Timeouts:        s.timeouts.Load(),
		Deadlocks:       s.deadlocks.Load(),
		Commits:         s.commits.Load(),
		Aborts:          s.aborts.Load(),
		Folds:           s.folds.Load(),
		Unforgotten:     unforgotten,
		Active:          active,
		Wakeups:         s.wakeups.Load(),
		SpuriousWakeups: s.spurious.Load(),
		WaiterHWM:       s.waiterHWM.Load(),
		SchemeSwitches:  s.schemeSwitches.Load(),
	}
}
