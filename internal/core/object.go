package core

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hybridcc/internal/ccpolicy"
	"hybridcc/internal/depend"
	"hybridcc/internal/histories"
	"hybridcc/internal/spec"
)

// Object is a hybrid atomic object: typed shared data managed by the
// paper's locking algorithm.
//
// The grant/deny hot path is kept O(1)-ish by two compiled representations:
//
//   - the conflict relation is compiled to a bitmask matrix
//     (depend.CompiledTable, immutable after registration): each ground
//     operation of the declared universe has a dense class index, each
//     active transaction carries a bitmask of held classes, and "does op
//     conflict with anything another transaction holds?" is one row-AND
//     per active transaction instead of O(their-ops) dynamic-dispatch
//     predicate calls;
//
//   - view states are materialized incrementally, under the object mutex:
//     the committed-tail state (version + unforgotten intentions) is cached
//     behind a generation counter bumped on commit, and each active
//     transaction's view is extended in place on grant instead of replaying
//     version + unforgotten + intentions from scratch on every attempt.
//
// Two more structures let the object scale across cores:
//
//   - an immutable snapshot of the committed tail is published behind an
//     atomic pointer on every commit and fold, so read-only transactions
//     (ReadCall) never take the mutex on the non-ExternalTimestamps path —
//     see tailSnapshot for the publication invariants;
//
//   - blocked calls wait on a FIFO queue of per-waiter channels instead of
//     a broadcast condition variable, each carrying the conflict-class
//     mask of its blocked invocation, so a completion event signals only
//     the waiters it could actually unblock — see waiter.
type Object struct {
	sys  *System
	name histories.ObjID
	sp   spec.Spec
	// readSp is sp's read capability, nil when it has none: resolved once
	// here so ReadCall pays no interface assertion per read.
	readSp spec.ReadSpec
	// conflict and table are the ACTIVE policy's components, denormalized
	// into plain fields so the grant/deny hot path pays no extra
	// indirection for policy support (guarded by mu, which a scheme switch
	// holds while it swaps them).  They always mirror policy.Conflict and
	// policy.Table, except in tests that splice a table in directly.
	conflict depend.Conflict
	table    *depend.CompiledTable

	// policies is the object's precompiled policy set; policy the active
	// member; pending a requested switch awaiting a quiescent instant
	// (len(active) == 0).  All guarded by mu.
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

	// waitHead/waitTail is the FIFO queue of blocked calls (guarded by
	// mu).  Completion events signal matching waiters in queue order; a
	// woken waiter is dequeued and re-enqueues at the tail if it blocks
	// again.
	waitHead, waitTail *waiter
	waiterCount        int

	// version is the compacted committed prefix: the state reached by the
	// intentions of forgotten committed transactions (Section 6).
	version spec.State
	// unforgotten holds committed transactions not yet folded into
	// version, sorted by timestamp.
	unforgotten []committedEntry
	// retained keeps, when retain is set (durable, no DurableSpec), what the
	// fold moved into version since the last checkpoint image took it.
	retain   bool
	retained []committedEntry
	// active holds each active transaction's lock record: its intentions
	// (which double as its locks), timestamp lower bound, held-class
	// bitmask, and cached view state.
	active map[*Tx]*txLock
	// clock is the largest commit timestamp this object has seen.
	clock histories.Timestamp
	// folded is the fold frontier: every committed transaction with
	// timestamp strictly below it has been folded into version, and no
	// future commit can land below it (monotone — see forgetLocked).  A
	// checkpoint records it as its image's horizon.
	folded histories.Timestamp

	// commitGen counts commits merged at this object.  Caches derived
	// from the committed tail (version + unforgotten) are valid exactly
	// when their recorded generation matches; aborts and folds leave the
	// tail state unchanged and so do not bump it.
	commitGen uint64
	// events counts completion events (grants, commits, aborts) — the
	// wakeup conditions of the appendix's "when" statement.  A blocked
	// call whose event count is unchanged across a wakeup re-waits
	// without re-deriving responses.
	events uint64
	// tailState is the committed-tail state as of tailGen; stale (and
	// lazily recomputed) when tailGen != commitGen.
	tailState spec.State
	tailGen   uint64

	// tailSnap is the published committed-tail snapshot: an immutable
	// picture of (version, unforgotten, tail state, clock) rebuilt under
	// mu whenever the committed tail changes (commit) or its
	// representation shifts (fold), and read lock-free by ReadCall.
	tailSnap atomic.Pointer[tailSnapshot]
	// batchMask and batchLocks are commitBatch's scratch buffers (guarded
	// by mu): the union wakeup mask of a batch and the lock records it
	// releases, reused across batches.
	batchMask  depend.Mask
	batchLocks []*txLock

	// windowWriters counts transactions inside their commit window at this
	// object: incremented before the committing transaction draws its
	// timestamp, decremented after its intentions merge here and the new
	// snapshot is published.  A reader whose timestamp predates its own
	// registration observes 0 only when every commit that could serialize
	// below it is already in the published snapshot — the lock-free
	// counterpart of blockingWriterLocked's commit-window wait.
	windowWriters atomic.Int64

	stats ObjectStats
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
func (o *Object) enqueueWaiterLocked(w *waiter) {
	w.queued = true
	w.next, w.prev = nil, o.waitTail
	if o.waitTail != nil {
		o.waitTail.next = w
	} else {
		o.waitHead = w
	}
	o.waitTail = w
	o.waiterCount++
	if int64(o.waiterCount) > o.stats.waiterHWM.Load() {
		o.stats.waiterHWM.Store(int64(o.waiterCount))
	}
}

// dequeueWaiterLocked unlinks w if it is still queued (a signalling
// completion event dequeues waiters itself).
func (o *Object) dequeueWaiterLocked(w *waiter) {
	if !w.queued {
		return
	}
	w.queued = false
	if w.prev != nil {
		w.prev.next = w.next
	} else {
		o.waitHead = w.next
	}
	if w.next != nil {
		w.next.prev = w.prev
	} else {
		o.waitTail = w.prev
	}
	w.next, w.prev = nil, nil
	o.waiterCount--
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
// cancelled.  Called with o.mu held; it releases the mutex while parked and
// returns with it held and the waiter dequeued.
func (o *Object) waitLocked(cw *callWait, ctx context.Context) waitResult {
	if cw.deadline.IsZero() {
		cw.deadline = time.Now().Add(o.sys.opts.LockWait)
	} else if !time.Now().Before(cw.deadline) {
		o.sys.stats.Timeouts.Add(1)
		o.stats.timeouts.Add(1)
		return waitTimedOut
	}
	if cw.timer == nil {
		cw.timer = time.NewTimer(time.Until(cw.deadline))
	}
	w := cw.waiter(o.sys)
	o.enqueueWaiterLocked(w)
	o.sys.stats.Waits.Add(1)
	o.stats.waits.Add(1)
	start := time.Now()
	o.mu.Unlock()
	res := waitWoke
	select {
	case <-w.ch:
		res = waitSignalled
	case <-cw.timer.C:
	case <-ctx.Done():
		res = waitCancelled
	}
	o.sys.stats.WaitNanos.Add(int64(time.Since(start)))
	o.mu.Lock()
	o.dequeueWaiterLocked(w)
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
// aborts (which only release locks).  With no waiters the walk is free: the common
// uncontended completion signals nobody, where a condition-variable
// broadcast woke every blocked reader and writer on the object.
func (o *Object) wakeScanLocked(mask depend.Mask, hasExtra, wakeAll, isCommit bool) {
	if o.waitHead == nil {
		return
	}
	var wakeups int64
	for w := o.waitHead; w != nil; {
		next := w.next
		wake := wakeAll || w.allEvents || (isCommit && w.anyCommit) ||
			hasExtra || mask.Intersects(w.mask)
		if wake {
			o.dequeueWaiterLocked(w)
			select {
			case w.ch <- struct{}{}:
			default:
			}
			wakeups++
		}
		w = next
	}
	if wakeups > 0 {
		o.stats.wakeups.Add(wakeups)
		o.sys.stats.Wakeups.Add(wakeups)
	}
}

// txLock is one active transaction's lock record at an object.
type txLock struct {
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
	// plus the first viewOps own intentions.
	view      spec.State
	viewGen   uint64
	viewOps   int
	viewValid bool
}

type committedEntry struct {
	ts    histories.Timestamp
	tx    histories.TxID
	parts int // the commit record's participant count
	ops   []spec.Op
}

// tailSnapshot is the immutable committed-tail picture behind the
// lock-free reader path.  Publication invariants:
//
//   - every field is immutable after publication: version/tail are spec
//     states (never mutated by contract), committedEntry values are never
//     rewritten once inserted, and unforgotten shares the live backing
//     array under a copy-on-write discipline — in-order commits append
//     past every published window's end, the fold advances the live
//     slice's start (the prefix stays reachable for at most the array's
//     capacity in commits, or foldedPrefixMax entries), and the rare
//     mid-slice insert (external timestamps arriving out of order)
//     replaces the array instead of shifting shared elements;
//   - a new snapshot is stored (under o.mu) before the committing
//     transaction's windowWriters count is released, so a reader that
//     observes windowWriters == 0 also observes every commit that could
//     serialize below its timestamp;
//   - folds republish: the fold moves entries from unforgotten into
//     version without changing the tail state, and active readers pin the
//     compaction horizon at their timestamps, so both the old and the new
//     snapshot reconstruct any active reader's state;
//   - a commit's snapshots come in one block, a slot per object it merges
//     at (commitTxs), while aborts, folds and recovery allocate one each.
//     A block lives while any of its snapshots is some object's current
//     snapshot (or a reader still holds one), so each object pins at most
//     one block.
type tailSnapshot struct {
	version     spec.State
	unforgotten []committedEntry
	tail        spec.State
	clock       histories.Timestamp
}

// stateAt reconstructs the committed state as of ts from the snapshot:
// the folded version plus unforgotten intentions with earlier timestamps.
// Both read paths share it: ReadCall's lock-free path applies it to the
// published snapshot, snapshotLocked to a transient one.
func (s *tailSnapshot) stateAt(sp spec.Spec, ts histories.Timestamp) spec.State {
	if ts >= s.clock {
		return s.tail // at or past the newest commit this object has seen
	}
	if n := len(s.unforgotten); n == 0 || s.unforgotten[n-1].ts <= ts {
		return s.tail
	}
	state := s.version
	ok := true
	for _, e := range s.unforgotten {
		if e.ts > ts {
			break
		}
		state, ok = spec.StepFrom(sp, state, e.ops...)
		if !ok {
			panic("hybridcc: illegal snapshot replay")
		}
	}
	return state
}

// publishTailLocked publishes the committed-tail snapshot into snap, a
// slot nobody has published yet (commitTxs hands each object its slot of
// one block).  Call after every change to version/unforgotten (commit,
// fold).  The unforgotten slice is shared, not copied — the copy-on-write
// discipline documented on tailSnapshot keeps every element below the
// published length immutable — so publication is O(1), not O(tail length).
func (o *Object) publishTailLocked(snap *tailSnapshot) {
	*snap = tailSnapshot{
		version:     o.version,
		unforgotten: o.unforgotten,
		tail:        o.committedTailLocked(),
		clock:       o.clock,
	}
	o.tailSnap.Store(snap)
}

// NewObject registers a fresh object named name with serial specification
// sp and the given symmetric conflict relation.  Correctness requires the
// conflict relation to be (the symmetric closure of) a dependency relation
// for sp — Theorems 11 and 17 make this condition both sufficient and
// necessary.
func (s *System) NewObject(name string, sp spec.Spec, conflict depend.Conflict) *Object {
	return s.NewObjectSeeded(name, sp, conflict, nil)
}

// NewObjectSeeded is NewObject with a declared finite operation universe,
// which the compiled conflict table is built from: its operations are
// granted by bitmask probes, and blocked calls of the invocations it
// covers get precise wakeup masks instead of conservative
// wake-on-every-commit.  Operations outside the universe take the
// dynamic-dispatch path against the conflict relation; under a nil
// universe (NewObject) every operation does.
func (s *System) NewObjectSeeded(name string, sp spec.Spec, conflict depend.Conflict, universe []spec.Op) *Object {
	set := ccpolicy.NewSet()
	set.Add("", conflict, universe)
	o, err := s.NewObjectPolicies(name, sp, set, "")
	if err != nil {
		panic("hybridcc: " + err.Error()) // unreachable: "" is in the set
	}
	return o
}

// NewObjectPolicies registers an object carrying a precompiled policy set:
// one conflict relation per scheme, each compiled up front so a runtime
// SetScheme is a pointer swap, never a recompile.  initial names the
// starting policy and must be a member of the set.  The set may be shared
// with other objects — the object only reads it, and keeps its own active
// and pending policy.
func (s *System) NewObjectPolicies(name string, sp spec.Spec, set *ccpolicy.Set, initial string) (*Object, error) {
	p := set.Get(initial)
	if p == nil {
		return nil, fmt.Errorf("hybridcc: object %s: initial scheme %q not in policy set (have %v)", name, initial, set.Schemes())
	}
	if s.remote != nil {
		// Mirror the registration onto the serving shard first: the shard
		// resolves the type by specification name and uses the policy set its
		// own process holds for the type.  The local struct below is a stub
		// for introspection and event recording — no operation ever touches
		// its lock state.
		if err := s.remoteRegister(name, sp, initial); err != nil {
			return nil, err
		}
	}
	o := &Object{
		sys:       s,
		name:      histories.ObjID(name),
		sp:        sp,
		conflict:  p.Conflict,
		table:     p.Table,
		policies:  set,
		policy:    p,
		version:   sp.Init(),
		active:    make(map[*Tx]*txLock),
		clock:     0,
		tailState: sp.Init(),
	}
	o.readSp, _ = sp.(spec.ReadSpec)
	_, durable := sp.(spec.DurableSpec)
	o.retain = s.log != nil && !durable
	o.publishTailLocked(new(tailSnapshot))
	s.registerObject(o)
	return o, nil
}

// Scheme returns the active policy's scheme name ("" for an object built
// from a bare conflict relation).
func (o *Object) Scheme() string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.policy.Scheme
}

// Schemes returns every scheme the object holds a precompiled policy for.
func (o *Object) Schemes() []string {
	return o.policies.Schemes()
}

// Policies returns the object's policy set: for a built-in type, the one
// set every object of the type shares.
func (o *Object) Policies() *ccpolicy.Set { return o.policies }

// SetScheme requests a switch of the object's active concurrency-control
// policy.  The switch installs at the first quiescent instant — no active
// lock holders — which SetScheme itself reaches when the object is idle;
// otherwise the request stays pending: new transactions are held back at
// this object (the drain barrier) while existing holders complete, and the
// completion that empties the active set installs the policy and wakes
// every parked waiter to re-derive under the new table.  Requesting the
// already-active scheme cancels any pending switch.  The error names the
// schemes available when the requested one was never registered.
func (o *Object) SetScheme(scheme string) error {
	p := o.policies.Get(scheme)
	if p == nil {
		return fmt.Errorf("hybridcc: object %s has no %q policy (have %v)", o.name, scheme, o.policies.Schemes())
	}
	if o.sys.remote != nil {
		// Switch on the serving shard, then mirror into the local stub so
		// Scheme() keeps answering accurately client-side.
		if err := o.sys.remote.SetScheme(string(o.name), scheme); err != nil {
			return err
		}
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if p == o.policy {
		if o.pending != nil {
			// Cancel the not-yet-installed switch and release the drain
			// barrier: parked first-timers can be granted again.
			o.pending = nil
			o.events++
			o.wakeScanLocked(nil, false, true, false)
		}
		return nil
	}
	o.pending = p
	o.maybeInstallPendingLocked()
	return nil
}

// maybeInstallPendingLocked installs the pending policy if the object is
// quiescent (no active lock holders) and reports whether no switch remains
// pending.  Completion paths that can empty the active set — commit,
// batch commit, abort — call it before releasing o.mu, as does the drain
// barrier itself, so the switch lands at the first quiescent instant
// without a dedicated background sweep.
func (o *Object) maybeInstallPendingLocked() bool {
	if o.pending == nil {
		return true
	}
	if len(o.active) != 0 {
		return false
	}
	o.policy = o.pending
	o.pending = nil
	o.conflict = o.policy.Conflict
	o.table = o.policy.Table
	o.events++
	o.stats.schemeSwitches.Add(1)
	o.sys.stats.SchemeSwitches.Add(1)
	// Wake every waiter unconditionally: masks captured against the old
	// table are meaningless now, so each parked call re-derives and
	// re-captures its wakeup mask from the new table.
	o.wakeScanLocked(nil, false, true, false)
	return true
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
	snap := o.stats.snapshot(len(o.unforgotten), len(o.active))
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

	ctx := tx.ctx
	if err := ctx.Err(); err != nil {
		return "", fmt.Errorf("hybridcc: %s on %s: %w", inv, o.name, err)
	}

	detect := o.sys.opts.DeadlockDetection
	if detect {
		defer o.sys.wfg.clear(tx)
	}
	var cw callWait
	defer cw.release(o.sys)
	attempted := false
	signalled := false
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
			lk := o.active[tx]
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
					cls, row := o.rowOfLocked(op)
					if row == nil {
						unclassed = true
					}
					if o.conflictsWithActiveRowLocked(tx, row, op) {
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
					holders = o.blockersLocked(tx, inv, state)
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
		switch o.waitLocked(&cw, ctx) {
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

// wakeMaskLocked captures the wakeup condition of a call of inv that just
// blocked.  dataBlocked marks calls with no legal response (only a commit
// can enable one); unclassed marks calls with candidate responses outside
// the table's universe (their conflicts are invisible to masks).
func (o *Object) wakeMaskLocked(inv spec.Invocation, dataBlocked, unclassed bool) (depend.Mask, bool, bool) {
	mask, covered := o.table.BlockMask(inv)
	// Outside the declared universe the mask cannot bound the responses a
	// state change may enable, so state-changing events (commits) wake
	// conservatively; lock releases stay targeted through the mask.
	return mask, dataBlocked || !covered, unclassed
}

// grantLocked appends op to tx's intentions (acquiring its lock), records
// the transaction's timestamp lower bound, marks op's conflict class in the
// transaction's held mask, extends the cached view state, and stages the
// event pair.  lk is tx's lock record, nil on its first grant here — when
// a record is drawn from the free list and the object left in tx.joined
// for the call's exit; cls is op's class (negative: outside the universe);
// view must be tx's current view state (op's response was derived from it).
// The returned buffer (backed by tx's scratch, empty without a sink) is
// flushed by the caller after releasing o.mu.
func (o *Object) grantLocked(tx *Tx, lk *txLock, op spec.Op, cls int, view spec.State) []pendingEvent {
	if lk == nil {
		lk = o.sys.getLock()
		o.active[tx] = lk
		tx.joined = o
	}
	lk.ops = tx.intend(lk.ops, op)
	lk.bound = o.clock
	if o.clock > tx.bound {
		tx.bound = o.clock
	}
	if cls >= 0 {
		lk.mask.Set(cls)
	} else {
		lk.extra = append(lk.extra, op)
	}
	next, ok := o.sp.Step(view, op)
	if !ok {
		panic(fmt.Sprintf("hybridcc: granted response %s illegal at %s", op, o.name))
	}
	lk.view, lk.viewGen, lk.viewOps, lk.viewValid = next, o.commitGen, len(lk.ops), true
	o.events++
	o.stats.granted.Add(1)
	var ev []pendingEvent
	if o.sys.opts.Sink != nil {
		id := tx.ID()
		ev = o.sys.stage(tx.sc.ev[:0], histories.InvokeEvent(id, o.name, op.Inv()))
		ev = o.sys.stage(ev, histories.RespondEvent(id, o.name, op.Res))
		tx.sc.ev = ev
	}
	return ev
}

// conflictsWithActiveRowLocked reports whether op conflicts with any
// operation in another active transaction's intentions list; row is op's
// compiled conflict row (nil when op lies outside the table's universe).
// When op has a compiled class, the check is one row-AND against each
// other transaction's held mask (plus a predicate scan over its rare
// extras); only operations outside the universe fall back to the full
// dynamic-dispatch scan.
func (o *Object) conflictsWithActiveRowLocked(tx *Tx, row []uint64, op spec.Op) bool {
	for other, lk := range o.active {
		if other == tx {
			continue
		}
		if o.holderConflictsLocked(lk, row, op) {
			o.stats.conflicts.Add(1)
			return true
		}
	}
	return false
}

// rowOfLocked returns op's class index and compiled conflict row, or
// (-1, nil) when op lies outside the table's universe — the caller then
// takes the dynamic-dispatch path.  Rows of classes are never nil.
func (o *Object) rowOfLocked(op spec.Op) (int, []uint64) {
	if cls, ok := o.table.ClassOf(op); ok {
		return cls, o.table.Row(cls)
	}
	return -1, nil
}

// holderConflictsLocked reports whether requesting op conflicts with any
// operation lk holds; row is op's compiled conflict row (nil when op has
// no class).  This is the single definition of the compiled-vs-fallback
// check: grant/deny and deadlock detection must agree on it.
func (o *Object) holderConflictsLocked(lk *txLock, row []uint64, op spec.Op) bool {
	if row != nil {
		return lk.mask.Intersects(row) || conflictsAny(o.conflict, lk.extra, op)
	}
	return conflictsAny(o.conflict, lk.ops, op)
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

// committedTailLocked returns the state of the committed tail — the
// compacted version followed by unforgotten committed intentions in
// timestamp order — recomputing the cache only when a commit has landed
// since it was last valid.  Commits that append in timestamp order extend
// the cache incrementally; only out-of-order (externally timestamped)
// commits force a replay.
func (o *Object) committedTailLocked() spec.State {
	if o.tailGen != o.commitGen {
		state := o.version
		ok := true
		for _, e := range o.unforgotten {
			state, ok = spec.StepFrom(o.sp, state, e.ops...)
			if !ok {
				panic(fmt.Sprintf("hybridcc: illegal committed intentions of %s at %s", e.tx, o.name))
			}
		}
		o.tailState = state
		o.tailGen = o.commitGen
	}
	return o.tailState
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
	if lk.viewValid && lk.viewGen == o.commitGen && lk.viewOps == len(lk.ops) {
		return lk.view
	}
	state, ok := spec.StepFrom(o.sp, o.committedTailLocked(), lk.ops...)
	if !ok {
		panic(fmt.Sprintf("hybridcc: illegal view for %s at %s", tx.id, o.name))
	}
	lk.view, lk.viewGen, lk.viewOps, lk.viewValid = state, o.commitGen, len(lk.ops), true
	return state
}

// mergeCommitLocked merges the intentions of tx's lock record lk into the
// committed tail at tx's published timestamp and stages its commit event
// into ev.  It is the per-transaction core of commitBatch, which folds,
// republishes the tail snapshot, wakes waiters, and releases the lock
// records once per batch.
func (o *Object) mergeCommitLocked(tx *Tx, lk *txLock, ev []pendingEvent) []pendingEvent {
	ts, ops := tx.ts, lk.ops
	delete(o.active, tx)
	// tx.entryID feeds the sink's commit event and panic diagnostics;
	// commitTxs read it when it published ts.
	id := tx.entryID
	entry := committedEntry{ts: ts, tx: id, parts: tx.entryParts, ops: ops}
	n := len(o.unforgotten)
	if n == 0 || o.unforgotten[n-1].ts <= ts {
		// In order — the only case with the system clock: append past every
		// published snapshot's end (their elements stay untouched in the
		// shared array) and extend the tail cache instead of invalidating
		// it.  The array grows by hand: a fold that empties the slice leaves
		// no capacity, and append would start over at one element per commit.
		if n == cap(o.unforgotten) {
			o.unforgotten = append(make([]committedEntry, 0, 2*n+8), o.unforgotten...)
		}
		o.unforgotten = append(o.unforgotten, entry)
		if o.tailGen == o.commitGen {
			if lk.viewValid && lk.viewGen == o.commitGen && lk.viewOps == len(ops) {
				// No commit landed here since tx's last grant: the view it
				// cached — this very tail, then ops — is the new tail.
				o.tailState = lk.view
			} else {
				state, ok := spec.StepFrom(o.sp, o.tailState, ops...)
				if !ok {
					panic(fmt.Sprintf("hybridcc: illegal committed intentions of %s at %s", id, o.name))
				}
				o.tailState = state
			}
			o.tailGen = o.commitGen + 1
		}
	} else {
		// Out of order (external timestamps): copy-on-write, because a
		// shift would rewrite elements published snapshots still expose.
		// The tail cache goes stale; committedTailLocked replays it.
		i := sort.Search(n, func(i int) bool { return o.unforgotten[i].ts > ts })
		u := make([]committedEntry, n+1)
		copy(u, o.unforgotten[:i])
		u[i] = entry
		copy(u[i+1:], o.unforgotten[i:])
		o.unforgotten = u
	}
	o.commitGen++
	o.events++
	if ts > o.clock {
		o.clock = ts
	}
	if o.sys.opts.Sink != nil {
		ev = o.sys.stage(ev, histories.CommitEvent(id, o.name, ts))
	}
	return ev
}

// commitBatch merges a commit batch (commitTxs' step 6) at this object in
// one critical section: every transaction's intentions merge at its own
// (already published, strictly increasing) timestamp, but the fold, the
// snapshot publication, and the waiter scan run once for the whole batch,
// with the wakeup filter taken over the union of the batch's held-class
// masks.  The new tail is published before the caller releases its
// windowWriters count: a lock-free reader that sees the count at zero must
// also see these commits in the snapshot.  Transactions that never executed
// here are skipped.  The new tail is published into snap.  Staged events
// are appended to ev and flushed by the caller after the critical section.
func (o *Object) commitBatch(batch []*Tx, ev []pendingEvent, snap *tailSnapshot) []pendingEvent {
	o.mu.Lock()
	o.batchMask = o.batchMask[:0]
	o.batchLocks = o.batchLocks[:0]
	hasExtra := false
	for _, tx := range batch {
		lk := o.active[tx]
		if lk == nil {
			continue
		}
		ev = o.mergeCommitLocked(tx, lk, ev)
		o.batchMask.Or(lk.mask)
		hasExtra = hasExtra || len(lk.extra) > 0
		o.batchLocks = append(o.batchLocks, lk)
	}
	if len(o.batchLocks) > 0 {
		if !o.sys.opts.DisableCompaction {
			o.forgetLocked()
		}
		o.publishTailLocked(snap)
		o.stats.commits.Add(int64(len(o.batchLocks)))
		o.wakeScanLocked(o.batchMask, hasExtra, false, true)
		for i, lk := range o.batchLocks {
			o.sys.putLock(lk)
			o.batchLocks[i] = nil
		}
		o.batchLocks = o.batchLocks[:0]
	}
	if o.pending != nil {
		o.maybeInstallPendingLocked()
	}
	o.mu.Unlock()
	return ev
}

// abort discards tx's intentions, releasing its locks.  The committed tail
// is untouched, so other transactions' cached views stay valid.
func (o *Object) abort(tx *Tx) {
	o.mu.Lock()
	lk := o.active[tx]
	delete(o.active, tx)
	o.events++
	if !o.sys.opts.DisableCompaction {
		if o.forgetLocked() > 0 { // an abort can advance the horizon
			o.publishTailLocked(new(tailSnapshot))
		}
	}
	o.stats.aborts.Add(1)
	var ev []pendingEvent
	if o.sys.opts.Sink != nil {
		ev = o.sys.stage(tx.sc.ev[:0], histories.AbortEvent(tx.ID(), o.name))
		tx.sc.ev = ev[:0]
	}
	if lk == nil {
		o.wakeScanLocked(nil, false, true, false)
	} else {
		o.wakeScanLocked(lk.mask, len(lk.extra) > 0, false, false)
		o.sys.putLock(lk)
	}
	if o.pending != nil {
		o.maybeInstallPendingLocked()
	}
	o.mu.Unlock()
	o.sys.flushEvents(ev)
}

// foldedPrefixMax is the largest fold that leaves the unforgotten array be.
const foldedPrefixMax = 64

// forgetLocked folds committed intentions older than the horizon into the
// version — the appendix's forget() — and reports how many entries it
// folded.  The horizon is the minimum lower bound among active
// transactions (+∞ when none): any transaction yet to commit must choose a
// timestamp above its bound, so entries strictly below every bound can
// never be preceded by a new commit.  Active read-only transactions pin
// the horizon at their (start-chosen) timestamps so their snapshots stay
// reconstructible.  Folding moves entries across the version/unforgotten
// boundary without changing the committed-tail state, so tail and view
// caches stay valid — but the caller must republish the tail snapshot.
func (o *Object) forgetLocked() int {
	horizon := histories.Timestamp(1<<62 - 1)
	for _, lk := range o.active {
		if lk.bound < horizon {
			horizon = lk.bound
		}
	}
	if rts := o.sys.readers.minTS(); rts < horizon {
		horizon = rts
	}
	n := 0
	if u := len(o.unforgotten); u > 0 && o.unforgotten[u-1].ts < horizon && o.tailGen == o.commitGen {
		// The horizon passes every entry: the version is the tail.
		o.version, n = o.tailState, u
	}
	for n < len(o.unforgotten) && o.unforgotten[n].ts < horizon {
		state, ok := spec.StepFrom(o.sp, o.version, o.unforgotten[n].ops...)
		if !ok {
			panic(fmt.Sprintf("hybridcc: illegal fold of %s at %s", o.unforgotten[n].tx, o.name))
		}
		o.version = state
		n++
	}
	if n > 0 {
		if o.retain {
			o.retained = append(o.retained, o.unforgotten[:n]...)
		}
		// Advance: published windows stay as they are, and the folded
		// prefix stays reachable for the array's capacity in commits — too
		// long for a drained backlog (a reader pin let go), which moves.
		if o.unforgotten = o.unforgotten[n:]; n > foldedPrefixMax {
			o.unforgotten = append(make([]committedEntry, 0, len(o.unforgotten)+8), o.unforgotten...)
		}
		o.stats.folds.Add(int64(n))
	}
	// Advance the fold frontier even when nothing folded: every entry with
	// timestamp < min(horizon, clock+1) is in version (there are none left
	// below the horizon), and no future commit lands there — an active
	// transaction commits above its bound ≥ horizon, and a transaction yet
	// to execute here will record bound = clock at grant, committing at
	// clock+1 or later.  Capping at clock+1 keeps the frontier finite when
	// the object is quiescent (horizon = +∞).
	f := horizon
	if c := o.clock + 1; c < f {
		f = c
	}
	if f > o.folded {
		o.folded = f
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
	if !o.sys.opts.DisableCompaction && o.forgetLocked() > 0 {
		o.publishTailLocked(new(tailSnapshot))
	}
	return o.tailSnap.Load(), o.folded, o.retained
}

// dropRetained forgets the n retained entries a published image holds.
func (o *Object) dropRetained(n int) {
	o.mu.Lock()
	o.retained = append([]committedEntry(nil), o.retained[n:]...)
	o.mu.Unlock()
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
