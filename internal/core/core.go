// Package core implements Herlihy & Weihl's hybrid locking algorithm as a
// concurrent runtime: the paper's primary contribution packaged the way a
// transaction-processing system would use it.
//
// A System owns a logical clock and mints transactions.  Objects are typed
// shared data: each combines a serial specification (internal/spec), a
// symmetric conflict relation derived from a dependency relation
// (internal/depend), a compacted committed version, the committed-but-
// unforgotten intentions of Section 6, and the intentions lists of active
// transactions (which double as their locks, as in Section 5.1).
//
// Calls follow the paper's response-event precondition: a response is
// granted when the operation is legal in the caller's view (committed
// version + unforgotten committed intentions in timestamp order + the
// caller's own intentions) and conflicts with no operation executed by
// another active transaction.  Blocked calls wait on the object's monitor —
// the Avalon "when" statement of the appendix — and time out after
// Options.LockWait, the usual remedy for the deadlocks any two-phase
// locking scheme admits.
//
// Commit draws a timestamp from the system clock primed with the
// transaction's per-object lower bounds (Section 6), then distributes the
// commit to every touched object — one procedure, System.commitTx, behind
// every commit entry point; horizon-based compaction folds old committed
// intentions into the version, exactly as the appendix's forget.
//
// The per-call hot path is compiled: conflict relations become bitmask
// tables over each type's declared operation universe
// (depend.CompiledTable), and view states are cached per transaction and
// extended incrementally on grant rather than replayed — see lockTable
// and versions for the invariants.
package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hybridcc/internal/histories"
	"hybridcc/internal/tstamp"
	"hybridcc/internal/wal"
)

// SeqSink receives every event the runtime accepts, each with a sequence
// number, so recording never extends a critical section.  The runtime
// draws one number from NextSeq per event at the moment the event is
// accepted — while holding the owning object's mutex — and calls RecordSeq
// later, from whatever goroutine, possibly out of order.  The sink must
// restore the sequence order when it materializes the history; because
// the counter is a single atomic word shared by every System feeding the
// sink, the restored order is per-object consistent and per-transaction
// consistent.  Sinks must be safe for concurrent use; the verify package
// provides a Recorder for offline hybrid-atomicity checking.
type SeqSink interface {
	NextSeq() uint64
	RecordSeq(seq uint64, e histories.Event)
}

// Options configures a System.
type Options struct {
	// LockWait bounds how long a call waits for a lock conflict to clear
	// or a partial operation to become enabled before returning
	// ErrTimeout.  Zero means DefaultLockWait.
	LockWait time.Duration
	// DisableCompaction keeps every committed intention unforgotten, for
	// ablation of the Section 6 scheme.  Results are unchanged; memory and
	// view-reconstruction cost grow without bound.
	DisableCompaction bool
	// Sink, when non-nil, observes all accepted events.
	Sink SeqSink
	// Clock overrides the timestamp generator (defaults to a fresh
	// tstamp.Source).  Sharing one clock across Systems models multiple
	// sites agreeing on a timestamp order.  A reader's stamp from a shared
	// Source is unique within its own System, whose objects are the only
	// ones it reads.
	Clock tstamp.Clock
	// ExternalTimestamps permits CommitAt — commit timestamps chosen by an
	// external atomic-commitment coordinator rather than this System's
	// clock.  It makes read-only transactions wait conservatively for
	// active update transactions (an externally timestamped commit can
	// land below a reader's start timestamp); systems using only Commit
	// should leave it off, making readers fully non-blocking.
	ExternalTimestamps bool
	// DeadlockDetection maintains a waits-for graph and fails a blocked
	// call with ErrDeadlock the moment it would close a cycle, instead of
	// letting it time out.  Timeouts still apply to waits that are not
	// deadlocks (e.g. a partial operation awaiting data).
	DeadlockDetection bool
	// Durability, when non-nil, gives the System a write-ahead commit log:
	// every commit appends its invocations (and fsyncs, per
	// Durability.Sync) before merging into any object, and OpenSystem
	// recovers committed state from an existing log.  Concurrent commits
	// share the log's fsyncs.  Requires OpenSystem; NewSystem panics on
	// log errors.
	Durability *Durability
}

// DefaultLockWait is the default lock-conflict timeout.
const DefaultLockWait = 250 * time.Millisecond

// System coordinates transactions over a set of hybrid atomic objects.
type System struct {
	opts    Options
	clock   tstamp.Clock
	txSeq   atomic.Uint64
	stats   Stats
	readers readerRegistry
	wfg     waitsFor

	// remote, when non-nil, makes this a client-side stub for a shard
	// served in another process (see remote.go): every operation becomes an
	// RPC and the fields above hold no authoritative state.
	remote RemoteShard

	// log is the write-ahead commit log, nil unless Options.Durability.
	log *wal.Log
	// objmu guards objects (the name→object index recovery replay resolves
	// against) and recovered.unclaimed.
	objmu   sync.Mutex
	objects map[histories.ObjID]*Object
	// recovered carries log state between OpenSystem and FinishRecovery.
	recovered *recoveredState
	// ckpt is the checkpointer (trigger loop lifecycle and counters);
	// recoveryDone flips when FinishRecovery (or a cluster's composed
	// recovery) completes — checkpoints are refused before that, and the
	// background checkpointer starts at the flip.
	ckpt         checkpointState
	recoveryDone atomic.Bool

	// The hot-path free lists.  txPool recycles Tx structs (with their
	// object lists and scratch buffers) through BeginPooled/Recycle;
	// readPool recycles ReadTx structs through BeginReadOnlyPooledCtx/
	// RecycleRead;
	// lockPool recycles the txLock records no Tx keeps (putLock);
	// waiterPool recycles blocked-call waiter nodes and their signal
	// channels.  Everything handed to a pool is reset first — the
	// recycling stress tests pin that no state crosses incarnations.
	txPool     sync.Pool
	readPool   sync.Pool
	lockPool   sync.Pool
	waiterPool sync.Pool

	// stamps is the clock when it can stamp a reader without a write
	// (tstamp.Source) and the System mints every timestamp itself — an
	// external CommitAt could land on a stamp in the gap.  Nil otherwise:
	// readers draw from the clock.  It sits last so it moves no hot field.
	stamps readStamper
}

// NewSystem returns a System with the given options, panicking where
// OpenSystem would return an error (only reachable with Options.Durability
// set).
func NewSystem(opts Options) *System {
	s, err := OpenSystem(opts)
	if err != nil {
		panic("hybridcc: " + err.Error())
	}
	return s
}

// Begin starts a transaction.
func (s *System) Begin() *Tx { return s.BeginCtx(context.Background()) }

// BeginCtx starts a transaction bound to ctx.  Cancelling ctx unblocks any
// lock wait the transaction is in and fails subsequent calls with an error
// wrapping ctx.Err(); the caller still completes the transaction with
// Abort.  A nil ctx means context.Background.
func (s *System) BeginCtx(ctx context.Context) *Tx {
	s.stats.Begun.Add(1)
	return s.newTx(ctx, "")
}

// newTx builds a Tx whose object list starts on its inline buffer.  A nil
// ctx means Background, an empty id the lazy "T<seq>".
func (s *System) newTx(ctx context.Context, id histories.TxID) *Tx {
	if ctx == nil {
		ctx = context.Background()
	}
	t := &Tx{sys: s, ctx: ctx, id: id}
	if id == "" {
		t.seq = s.txSeq.Add(1)
	}
	t.objs = t.objBuf[:0]
	return t
}

// BeginPooledCtx is BeginCtx drawing the Tx from the system free list: the
// struct, its object list, and its scratch buffers are recycled from an
// earlier completed transaction instead of allocated.  The caller must
// hand the Tx back with Recycle once it has committed or aborted, and must
// not retain the handle past that point: a retained handle fails with
// ErrTxDone (the recycled status) until the struct is reused, and never
// observes the previous incarnation's state — but once a NEW transaction
// begins on the reused struct, the retained pointer aliases that
// transaction, exactly like a database/sql statement used after Close.
// Code that needs handles with an open-ended lifetime uses Begin, whose
// transactions are never pooled.  Atomically's retry loop runs entirely
// on one pooled Tx this way, scoping the handle to the callback.
func (s *System) BeginPooledCtx(ctx context.Context) *Tx {
	s.stats.Begun.Add(1)
	t, ok := s.txPool.Get().(*Tx)
	if !ok {
		return s.newTx(ctx, "")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	// The struct left Recycle in the txRecycled state with its books cleared
	// and scratches truncated; only identity and liveness need resetting.
	t.mu.Lock()
	t.seq = s.txSeq.Add(1)
	t.id = ""
	t.gen++
	t.status = txActive
	t.busy = false
	t.prepared = false
	t.loggedPrepare = false
	t.participants = 0
	t.ts = 0
	t.ctx = ctx
	t.mu.Unlock()
	return t
}

// Recycle returns a completed pooled transaction to the free list.  It is
// a no-op unless the transaction has committed or aborted and no operation
// is still executing on it — an active or busy Tx is never torn out from
// under a concurrent caller, it is simply not recycled.  After Recycle the
// handle is dead: every method returns ErrTxDone.
func (s *System) Recycle(t *Tx) {
	t.mu.Lock()
	if (t.status != txCommitted && t.status != txAborted) || t.busy {
		t.mu.Unlock()
		return
	}
	t.status = txRecycled
	clear(t.objs)
	t.objs = t.objs[:0]
	t.bound, t.calls = 0, 0
	t.arena, t.arenaUsed, t.arenaHint = nil, 0, t.arenaUsed
	t.ev = t.ev[:0]
	t.ctx = nil
	t.mu.Unlock()
	s.txPool.Put(t)
}

// BeginReadOnlyPooledCtx is BeginReadOnlyCtx drawing the ReadTx from the
// system free list, under BeginPooledCtx's contract: the caller hands the
// reader back with RecycleRead once it has committed or aborted and does
// not retain the handle past that point — a retained handle fails with
// ErrTxDone until the struct is reused, and aliases the new reader after.
// Snapshot scopes the handle to its callback this way.
func (s *System) BeginReadOnlyPooledCtx(ctx context.Context) *ReadTx {
	t, ok := s.readPool.Get().(*ReadTx)
	if !ok {
		t = &ReadTx{sys: s}
	}
	return s.startRead(t, ctx, readSeqBlock)
}

// RecycleRead returns a finished pooled reader to the free list; a reader
// still active is left alone.
func (s *System) RecycleRead(t *ReadTx) {
	if !t.done() {
		return
	}
	clear(t.touched)
	t.touched = t.touched[:0]
	t.ctx = nil
	s.readPool.Put(t)
}

// BeginBranch starts a transaction branch carrying an externally chosen
// identifier: the local leg of a distributed transaction whose sibling
// branches run on other Systems under the same id, so their events merge
// into one global transaction in a shared recorder.  The caller owns id
// uniqueness across every System sharing a sink; completion goes through
// Prepare/CommitAt (driven by an atomic-commitment coordinator) or Abort.
func (s *System) BeginBranch(ctx context.Context, id histories.TxID) *Tx {
	s.stats.Begun.Add(1)
	return s.newTx(ctx, id)
}

// getLock draws a clean txLock record for t, from the ones it kept first.
func (s *System) getLock(t *Tx) *txLock {
	if lk := t.freeLocks; lk != nil {
		t.freeLocks, lk.next = lk.next, nil
		return lk
	}
	if lk, ok := s.lockPool.Get().(*txLock); ok {
		return lk
	}
	return &txLock{}
}

// putLock resets a released lock record.  A Tx back from the pool (gen > 0)
// keeps it when the caller has that Tx to itself (own: its commit, or an
// abort that overtook no call); the free list takes the rest.  Intentions
// live in the Tx's arena (Tx.intend), which the record does not keep.
func (s *System) putLock(lk *txLock, own bool) {
	t := lk.tx
	clear(lk.mask)
	*lk = txLock{mask: lk.mask[:0], extra: lk.extra[:0]}
	if own && t.gen > 0 {
		lk.next, t.freeLocks = t.freeLocks, lk
		return
	}
	s.lockPool.Put(lk)
}

// getWaiter draws a waiter node (with its reusable signal channel) from
// the free list.
func (s *System) getWaiter() *waiter {
	if w, ok := s.waiterPool.Get().(*waiter); ok {
		return w
	}
	return &waiter{ch: make(chan struct{}, 1)}
}

// putWaiter resets a dequeued waiter and returns it to the free list.  The
// caller must have dequeued it; a stray signal already in flight to the
// channel is drained so the next incarnation starts unsignalled.
func (s *System) putWaiter(w *waiter) {
	select {
	case <-w.ch:
	default:
	}
	w.mask = nil
	w.anyCommit, w.allEvents = false, false
	w.next, w.prev = nil, nil
	w.queued = false
	s.waiterPool.Put(w)
}

// Stats returns a snapshot of system-wide counters.  On a remote System
// the serving shard's counters are fetched over the wire (its lock waits,
// log fsyncs, and recovery counts are the ones that matter); if the shard
// is unreachable the local client-side counters are returned with
// StatsErr set, so callers can tell a stub fallback from real shard
// numbers.
func (s *System) Stats() StatsSnapshot {
	var remoteErr error
	if s.remote != nil {
		ctx, cancel := context.WithTimeout(context.Background(), remoteStatsTimeout)
		defer cancel()
		snap, err := s.remote.Stats(ctx)
		if err == nil {
			return snap
		}
		remoteErr = err
	}
	snap := s.stats.snapshot()
	s.readers.addTo(&snap)
	if s.log != nil {
		ls := s.log.Stats()
		snap.LogAppends = ls.Appends
		snap.LogFsyncs = ls.Fsyncs
	}
	if remoteErr != nil {
		snap.StatsErr = remoteErr.Error()
	}
	return snap
}

// pendingEvent is an accepted event awaiting delivery to the sequenced
// sink: the sequence number was drawn inside the critical section, the
// Record call happens after it.
type pendingEvent struct {
	seq uint64
	e   histories.Event
}

// stage accepts an event for the sink: it draws the acceptance sequence
// number now (callers hold the owning object's mutex, which is what makes
// the number meaningful) and defers delivery to a later flushEvents.
// Callers check that a sink is attached.
func (s *System) stage(buf []pendingEvent, e histories.Event) []pendingEvent {
	return append(buf, pendingEvent{seq: s.opts.Sink.NextSeq(), e: e})
}

// flushEvents delivers staged events; callers must have released the
// object mutex.  A non-empty buffer implies a sink.
func (s *System) flushEvents(buf []pendingEvent) {
	for _, pe := range buf {
		s.opts.Sink.RecordSeq(pe.seq, pe.e)
	}
}

// recordDirect records an event, if a sink is attached, outside any object
// mutex: a reader's events and a remote stub's, whose order no object
// mutex decides, and recovery replay's, which runs single-threaded.
func (s *System) recordDirect(e histories.Event) {
	if s.opts.Sink != nil {
		s.opts.Sink.RecordSeq(s.opts.Sink.NextSeq(), e)
	}
}

// Stats aggregates system-wide counters.  Transactions keep their per-call
// books to themselves and publish them when they finish: an update
// transaction adds Calls with Committed or Aborted here — when it commits or
// aborts, never while open (its Begun counts at begin); a read-only
// transaction writes none of these words but leaves its calls and its
// outcome in its registry slot (readerSlot) at Commit or Abort, from where
// System.Stats adds them into the same StatsSnapshot fields.  Only a remote
// stub counts each call as it is made.
type Stats struct {
	Begun     atomic.Int64
	Committed atomic.Int64
	Aborted   atomic.Int64
	Calls     atomic.Int64
	Waits     atomic.Int64
	Timeouts  atomic.Int64
	WaitNanos atomic.Int64
	// Wakeups counts waiter signals delivered by completion events;
	// SpuriousWakeups counts the subset whose re-derivation did not grant.
	// Their ratio is the precision of the targeted-wakeup masks.
	Wakeups         atomic.Int64
	SpuriousWakeups atomic.Int64
	// Recovered counts committed transactions replayed from the commit log
	// at startup (distinct from Committed, which counts live commits).
	Recovered atomic.Int64
	// SchemeSwitches counts installed per-object policy switches.
	SchemeSwitches atomic.Int64
}

// StatsSnapshot is an immutable copy of Stats.
type StatsSnapshot struct {
	Begun           int64
	Committed       int64
	Aborted         int64
	Calls           int64
	Waits           int64
	Timeouts        int64
	WaitTime        time.Duration
	Wakeups         int64
	SpuriousWakeups int64
	// GroupBatches and GroupBatchTxs always read zero: every commit is one
	// transaction's.  They stay for readers compiled against them.
	GroupBatches  int64
	GroupBatchTxs int64
	Recovered     int64
	// SchemeSwitches counts installed per-object policy switches.
	SchemeSwitches int64
	// LogAppends and LogFsyncs mirror the commit log's counters (zero on a
	// volatile System); LogFsyncs/Committed is the fsyncs-per-commit ratio,
	// below one when concurrent commitTx calls share an fsync.
	LogAppends int64
	LogFsyncs  int64
	// StatsErr is empty for a snapshot of real counters.  On a remote
	// System whose shard could not be reached, it carries the fetch error
	// and the other fields are the local client-side stub's counters —
	// near zero, and not to be mistaken for the shard's.
	StatsErr string `json:",omitempty"`
}

func (s *Stats) snapshot() StatsSnapshot {
	return StatsSnapshot{
		Begun:           s.Begun.Load(),
		Committed:       s.Committed.Load(),
		Aborted:         s.Aborted.Load(),
		Calls:           s.Calls.Load(),
		Waits:           s.Waits.Load(),
		Timeouts:        s.Timeouts.Load(),
		WaitTime:        time.Duration(s.WaitNanos.Load()),
		Wakeups:         s.Wakeups.Load(),
		SpuriousWakeups: s.SpuriousWakeups.Load(),
		Recovered:       s.Recovered.Load(),
		SchemeSwitches:  s.SchemeSwitches.Load(),
	}
}

// String summarizes the snapshot.
func (s StatsSnapshot) String() string {
	return fmt.Sprintf("begun=%d committed=%d aborted=%d calls=%d waits=%d timeouts=%d waittime=%s wakeups=%d spurious=%d",
		s.Begun, s.Committed, s.Aborted, s.Calls, s.Waits, s.Timeouts, s.WaitTime, s.Wakeups, s.SpuriousWakeups)
}
