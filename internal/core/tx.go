package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strconv"
	"sync"

	"hybridcc/internal/depend"
	"hybridcc/internal/histories"
	"hybridcc/internal/spec"
	"hybridcc/internal/wal"
)

// txStatus tracks a transaction's lifecycle.
type txStatus int

const (
	txActive txStatus = iota
	// txCommitting covers Commit's window between leaving txActive and
	// learning the commit timestamp: the transaction can no longer execute
	// operations or abort, but Timestamp() still reports "not committed".
	// Publishing txCommitted before t.ts is assigned would let a
	// concurrent Timestamp() observe (0, true) — a wrong public answer.
	txCommitting
	txCommitted
	txAborted
	// txRecycled marks a Tx sitting in (or reset for) the system pool: the
	// previous incarnation completed and the struct may be handed to a new
	// transaction at any moment.  Every public method treats it as done, so
	// a stale handle held across Recycle fails with ErrTxDone instead of
	// silently operating on whatever transaction reuses the struct.
	txRecycled
)

// Txn is what the public API routes operations through: Branch returns
// the transaction branch that executes operations at o.  A plain
// transaction is its own branch everywhere; a distributed transaction
// (internal/cluster) returns — opening on first use — the branch on the
// shard that owns o.
type Txn interface {
	Branch(o *Object) (*Tx, error)
}

// Branch implements Txn: a plain transaction executes itself — on objects
// of its own System only.  Rejecting foreign objects here turns a mixed-up
// handle (an object from another System or a Cluster shard) into an
// immediate error instead of silently minting timestamps from the wrong
// clock.
func (t *Tx) Branch(o *Object) (*Tx, error) {
	if o.sys != t.sys {
		return nil, fmt.Errorf("hybridcc: object %s belongs to a different System than transaction %s", o.name, t.ID())
	}
	return t, nil
}

// Tx is a transaction.  A transaction is single-threaded, as in the
// paper's model: it has at most one pending invocation at a time, and the
// runtime reports ErrTxBusy on concurrent use.
//
// Tx structs are recycled through the system pool (BeginPooled/Recycle):
// each incarnation carries a fresh generation stamp and identifier, and the
// touched-object list, the staged-event buffer, the lock records and the
// class memo survive recycling, so the hot path stops redoing them.
//
// A grant writes joined and bound under the object's mutex alone — only
// the goroutine of the transaction's one pending call does, between enter
// and exit — and exit moves joined into objs under mu.  Commit, CommitAt
// and Prepare refuse a busy transaction; Abort does not wait: under mu it
// ends the transaction and takes objs as they stand, and the exit of the
// call it overtook releases the object it could not see.
type Tx struct {
	sys *System
	ctx context.Context

	mu     sync.Mutex
	status txStatus
	busy   bool
	// prepared freezes the branch after a yes vote in an external commit
	// protocol: new operations are rejected (ErrTxBusy) until the
	// decision arrives via CommitAt or Abort.  Without the freeze, a call
	// racing the protocol could be granted after the vote and raise the
	// branch's timestamp bound above the already-chosen decision
	// timestamp — standard 2PC participant behavior forbids exactly that.
	prepared bool
	// loggedPrepare records that the branch's yes vote reached the log
	// durably: a repeat Prepare (the protocol retries idempotently) must
	// not re-log it, and above all must not unfreeze the branch if the
	// redundant append fails — the coordinator may already hold the bound
	// the freeze protects.
	loggedPrepare bool
	// participants is the number of sites the enclosing distributed
	// transaction commits on (stamped into the commit record so cluster
	// recovery can detect a missing leg); zero for single-site commits.
	participants int
	ts           histories.Timestamp

	// objs lists the objects the transaction holds a lock record at, in
	// grant order until touchedObjects sorts it; it starts on objBuf.  An
	// object joins once: its first grant leaves it in joined and the
	// call's exit appends it, so there is nothing to deduplicate.
	objs   []*Object
	objBuf [8]*Object
	joined *Object
	// bound is the largest o.clock any grant saw: the commit timestamp's
	// lower bound (Section 6), equal to the largest bound in the lock
	// records because an object's clock only rises.
	bound histories.Timestamp
	// calls counts the calls entered (under mu); it reaches Stats when a
	// local transaction commits or aborts.
	calls int64

	// seq is the local sequence number behind the lazy identifier; id is
	// materialized from it on first use ("T<seq>") unless preset by
	// BeginBranch.  gen counts pool incarnations — bumped on every recycle
	// so debugging and the recycling stress tests can tell reuse from
	// aliasing.
	seq uint64
	id  histories.TxID
	gen uint64

	// ev stages the sink events of this transaction's grants, commit and
	// abort, reused across its operations and across pool incarnations.
	ev []pendingEvent

	// arena backs every lock record's intentions (intend).  Committed
	// entries share its slots, so Recycle drops it and keeps only the
	// slots drawn this incarnation, arenaUsed, to size the next one's.
	arena     []spec.Op
	arenaUsed int32
	arenaHint int32
	// freeLocks lists, through txLock.next, the lock records that a Tx back
	// from the pool released itself (putLock); its grants draw from it.
	freeLocks *txLock
	// memo holds the classes of the last two operations rowOfLocked looked
	// up, keyed by compiled table: a scheme switch installs another table.
	memo [2]struct {
		table *depend.CompiledTable
		op    spec.Op
		cls   int
	}
}

// classOf returns op's class in table, -1 outside its universe, looking in
// t's memo first.  Only the goroutine of t's one pending call asks.
func (t *Tx) classOf(table *depend.CompiledTable, op spec.Op) int {
	for i := range t.memo {
		if m := &t.memo[i]; m.table == table && m.op == op {
			return m.cls
		}
	}
	cls, ok := table.ClassOf(op)
	if !ok {
		cls = -1
	}
	t.memo[1] = t.memo[0]
	t.memo[0].table, t.memo[0].op, t.memo[0].cls = table, op, cls
	return cls
}

// ID returns the transaction's identifier, materializing it on first use:
// a transaction that never records events, never errors, and is never
// asked needs no identifier string at all.
func (t *Tx) ID() histories.TxID {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.idLocked()
}

func (t *Tx) idLocked() histories.TxID {
	if t.id == "" {
		var buf [24]byte
		t.id = histories.TxID(strconv.AppendUint(append(buf[:0], 'T'), t.seq, 10))
	}
	return t.id
}

// Context returns the context the transaction was started with
// (context.Background for Begin), or nil on a recycled handle.
// Cancelling it makes every pending and future call of the transaction
// return an error wrapping the context's error; the transaction itself
// must still be completed with Abort.
func (t *Tx) Context() context.Context {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ctx
}

// Timestamp returns the commit timestamp and true once the transaction has
// committed.
func (t *Tx) Timestamp() (histories.Timestamp, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ts, t.status == txCommitted
}

// commitState returns the committed entry (timestamp, identifier and
// participant count) and status in one critical section, so readers
// deciding whether to wait for or merge this writer can distinguish
// committing (timestamp still unknown — wait) from committed (compare
// timestamps) without racing the transition between two separate reads.
func (t *Tx) commitState() (committedEntry, txStatus) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return committedEntry{ts: t.ts, tx: t.id, parts: t.participants}, t.status
}

// intend appends op to ops, one of t's lock records' intentions, in t's
// arena: a first grant takes one slot; a full run extends in place when it
// is the arena's newest, else moves to a fresh run twice its length.  Runs
// are capped at their own slots, so no record appends into another's.  Only
// the goroutine of t's one pending call grants, so the arena needs no lock.
func (t *Tx) intend(ops []spec.Op, op spec.Op) []spec.Op {
	n := len(ops)
	if n < cap(ops) {
		return append(ops, op)
	}
	a, m := t.arena, len(t.arena)
	if n > 0 && m < cap(a) && &ops[n-1] == &a[m-1] {
		t.arena = a[:m+1]
		t.arenaUsed++
		return append(a[m-n:m:m+1], op)
	}
	want := max(2*n, 1)
	if m+want > cap(a) {
		// A fresh chunk: the rest of the previous incarnation's draw, or
		// this one's overshoot of it; without one, just the run.
		size := want
		if t.arenaHint > 0 {
			size = max(want, int(t.arenaHint-t.arenaUsed), int(t.arenaUsed-t.arenaHint))
		}
		a, m = make([]spec.Op, 0, size), 0
	}
	t.arena = a[:m+want]
	t.arenaUsed += int32(want)
	return append(append(a[m:m:m+want], ops...), op)
}

// enter marks the transaction as executing one operation.
func (t *Tx) enter() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.status != txActive {
		return ErrTxDone
	}
	if t.busy || t.prepared {
		return ErrTxBusy
	}
	t.busy = true
	t.calls++
	return nil
}

// exit clears the executing flag and enters a first grant's object in objs
// — or releases it, when Abort ended the transaction under the call.
func (t *Tx) exit() {
	t.mu.Lock()
	t.busy = false
	o := t.joined
	t.joined = nil
	if o != nil && t.status == txActive {
		t.objs = append(t.objs, o)
		o = nil
	}
	t.mu.Unlock()
	if o != nil {
		o.abort(t, false) // beside Abort's goroutine
	}
}

// touchedObjects returns t.objs sorted, in place, by registration ordinal —
// the order WAL records and sink events list objects in — allocating
// nothing (unlike sort.Slice).  The caller holds t.mu or has shut calls out.
func (t *Tx) touchedObjects() []*Object {
	slices.SortFunc(t.objs, func(a, b *Object) int { return cmp.Compare(a.ord, b.ord) })
	return t.objs
}

// Commit atomically commits the transaction at every object it touched.
// The commit timestamp is drawn from the system clock primed with the
// transaction's per-object lower bounds, which establishes the paper's
// timestamp-generation constraint (precedes ⊆ TS) at every object.
func (t *Tx) Commit() error { return t.CommitAbove(0) }

// CommitAbove is Commit with a timestamp also above lower: a bound the
// transaction must serialize after although none of its objects knows it
// yet (a shard serving a client that has seen a commit decided above it,
// not yet applied there).  A remote branch ignores it.
func (t *Tx) CommitAbove(lower histories.Timestamp) error {
	if t.sys.remote != nil {
		return t.remoteCommit()
	}
	if err := t.startCommit(false); err != nil {
		return err
	}
	t.bound = max(t.bound, lower)
	return t.notLogged(t.sys.commitTx(t, 0))
}

// startCommit moves an active transaction with no call in flight to
// txCommitting.  A prepared branch awaits its coordinator's decision — a
// local commit would race it with a second timestamp — so only the decision
// itself (decided) passes the freeze; it can find a call in flight only
// when CommitAt is used without Prepare, and is refused rather than run
// under an operation.
func (t *Tx) startCommit(decided bool) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.status != txActive {
		return ErrTxDone
	}
	if t.busy || (t.prepared && !decided) {
		return ErrTxBusy
	}
	t.status = txCommitting
	return nil
}

// notLogged names the transaction in a commitTx failure: the log did
// not take the commit record, so the transaction was aborted instead
// (locks released, intentions discarded, nothing merged).
func (t *Tx) notLogged(err error) error {
	if err != nil {
		return fmt.Errorf("hybridcc: commit of %s not logged, aborted: %w", t.ID(), err)
	}
	return nil
}

// Abort aborts the transaction, releasing its locks and discarding its
// intentions at every touched object.  Aborting a completed transaction is
// a no-op error (ErrTxDone).
func (t *Tx) Abort() error {
	if t.sys.remote != nil {
		return t.remoteAbort()
	}
	t.mu.Lock()
	if t.status != txActive {
		t.mu.Unlock()
		return ErrTxDone
	}
	wasPrepared, calls, own := t.prepared, t.calls, !t.busy
	t.status = txAborted
	objs := t.touchedObjects()
	t.mu.Unlock()

	for _, o := range objs {
		o.abort(t, own)
	}
	if wasPrepared && t.sys.log != nil {
		// Resolve the logged prepared vote so the next recovery skips it
		// without consulting a coordinator.  Buffered, no fsync: under
		// presumed abort, losing this record costs nothing — recovery
		// reaches the same verdict from the decision record's absence.
		_ = t.sys.log.Append(wal.Record{Kind: wal.KindAbort, Tx: string(t.ID())})
		t.sys.ckpt.pending.Delete(string(t.ID()))
	}
	t.sys.stats.Aborted.Add(1)
	t.sys.stats.Calls.Add(calls)
	return nil
}

// AbortDecided is Abort for a branch whose abort decision the commit
// protocol delivered: a remote branch sends no second abort.
func (t *Tx) AbortDecided() error {
	if t.sys.remote != nil {
		return t.remoteDecided(false, 0)
	}
	return t.Abort()
}

// Prepare exposes the transaction's maximum recorded lower bound for use
// by an external atomic-commitment protocol (internal/commitproto): the
// coordinator must choose a commit timestamp greater than this bound, then
// call CommitAt.  Preparing freezes the branch — further operations fail
// with ErrTxBusy until CommitAt or Abort resolves it — so the reported
// bound cannot rise after the vote.  Prepare is idempotent while the
// branch stays unresolved.
func (t *Tx) Prepare() (histories.Timestamp, error) {
	if t.sys.remote != nil {
		// A remote branch never prepares through this handle: the commit
		// protocol's Prepare travels over the shard connection, which is
		// itself the commitproto.Transport, and the serving shard votes.
		return 0, fmt.Errorf("hybridcc: Prepare on remote branch %s (use the shard transport)", t.ID())
	}
	t.mu.Lock()
	if t.status != txActive {
		t.mu.Unlock()
		return 0, ErrTxDone
	}
	if t.busy {
		t.mu.Unlock()
		return 0, ErrTxBusy
	}
	t.prepared = true
	voteLogged := t.loggedPrepare
	t.mu.Unlock()
	// The yes vote must survive a participant crash: log the branch's
	// intentions (durable on return) before reporting the bound.  A branch that cannot
	// log votes no — unfreeze and fail the Prepare.  A repeat Prepare whose
	// vote is already durable skips the append entirely: re-logging buys
	// nothing, and a failure of the redundant append must not unfreeze a
	// branch whose bound the coordinator may already hold.
	if s := t.sys; s.log != nil && !voteLogged {
		rec := s.walPreparedRecord(t, t.touchedObjects())
		s.ckpt.pending.Store(rec.Tx, rec) // before the append: see checkpointLocked
		if err := s.log.AppendSync(rec); err != nil {
			s.ckpt.pending.Delete(rec.Tx)
			t.mu.Lock()
			t.prepared = false
			t.mu.Unlock()
			return 0, fmt.Errorf("hybridcc: prepare of %s not logged: %w", t.ID(), err)
		}
		t.mu.Lock()
		t.loggedPrepare = true
		t.mu.Unlock()
	}
	return t.bound, nil
}

// SetParticipants records the number of sites the enclosing distributed
// transaction commits on.  The count is stamped into this branch's commit
// record, so a recovery that merges the transaction across shard logs can
// check it found every leg (a log opened with fsync off can lose a
// buffered leg in a crash) instead of silently replaying a subset.  Call
// it before the commit protocol runs; it has no effect on a volatile
// System.
func (t *Tx) SetParticipants(n int) {
	t.mu.Lock()
	t.participants = n
	t.mu.Unlock()
	if t.sys.remote != nil {
		// The count rides the Prepare RPC so the serving shard stamps it
		// into its commit record (torn-leg detection works across
		// processes, not just across in-process shards).
		t.sys.remote.StampParticipants(t.ID(), n)
	}
}

// CommitAt commits with an externally chosen timestamp (from an atomic
// commitment protocol).  The caller is responsible for the timestamp being
// unique and above the bound reported by Prepare; the system clock observes
// it so locally minted timestamps stay ahead.  The System must be
// constructed with Options.ExternalTimestamps, which tells read-only
// transactions to account for externally timestamped commits.
func (t *Tx) CommitAt(ts histories.Timestamp) error {
	if t.sys.remote != nil {
		return t.remoteDecided(true, ts)
	}
	if !t.sys.opts.ExternalTimestamps {
		return ErrExternalTS
	}
	if ts <= 0 {
		// Every bound Prepare reports is ≥ 0 and the decision must exceed
		// it; zero is also commitTx's "draw your own" value.
		return fmt.Errorf("hybridcc: CommitAt(%d) of %s: timestamp must be positive", ts, t.ID())
	}
	if err := t.startCommit(true); err != nil {
		return err
	}
	// The commit record repeats the branch's full operation sequences even
	// though a prepared record usually precedes it, making it
	// self-contained: recovery of a decided branch never pairs records.
	return t.notLogged(t.sys.commitTx(t, ts))
}
