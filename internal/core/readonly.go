package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync/atomic"

	"hybridcc/internal/histories"
	"hybridcc/internal/spec"
)

// This file implements the Section 7 extension: the "more general form of
// hybrid atomicity" in which read-only transactions choose their
// timestamps when they START rather than when they commit (the static
// atomic treatment of Weihl's multi-version work, combined with the
// dynamic treatment of update transactions — the origin of the name
// "hybrid").
//
// A ReadTx serializes at its start timestamp: every read observes exactly
// the committed intentions with earlier timestamps.  Readers acquire no
// locks and never block writers; a reader may wait (bounded by the lock
// wait) for an update transaction that could still commit below the
// reader's timestamp, and it holds back horizon compaction while active so
// its snapshot stays reconstructible.

// ErrNotReadOnly reports an attempt to execute a state-changing operation
// inside a read-only transaction.
var ErrNotReadOnly = fmt.Errorf("hybridcc: operation mutates state in a read-only transaction")

// ReadTxn is the read-only counterpart of Txn: Branch returns the
// read-only branch observing o's shard.  A plain ReadTx reads everywhere
// itself; a cluster-wide snapshot returns the branch registered on the
// System that owns o.
type ReadTxn interface {
	Branch(o *Object) (*ReadTx, error)
}

// Branch implements ReadTxn: a plain reader reads itself — on objects of
// its own System only (see (*Tx).Branch).
func (t *ReadTx) Branch(o *Object) (*ReadTx, error) {
	if o.sys != t.sys {
		return nil, fmt.Errorf("hybridcc: object %s belongs to a different System than reader %s", o.name, t.ID())
	}
	return t, nil
}

// ReadTx is a read-only transaction with a start-time timestamp.  Like Tx
// it is single-threaded, and its identifier is materialized lazily from seq
// ("R<seq>"): a reader that records no events never allocates the string.
// It holds no mutex and writes no word another transaction writes: it
// loads the clock and stamps itself in the gap above it (tstamp.Source's
// ReadStamp), liveness is an atomic word of its own, the compaction pin,
// the stamp tie-break and the counters it leaves at finish sit in a
// registry slot of its own, and a lock-free read writes nothing at the
// object it reads (the mutex path may merge a committed writer there).
type ReadTx struct {
	sys *System
	// seq numbers the reader within its System; a pooled struct reserves
	// readSeqBlock numbers from txSeq at a time and stops at seqEnd, so
	// every number stays unique and at most txSeq.
	seq, seqEnd uint64
	ctx         context.Context
	ts          histories.Timestamp
	id          histories.TxID

	// bound is the owning shard's clock bound learned when a remote branch
	// opened (ClockBound); rerr is the sticky error of a remote branch
	// whose open or activation RPC failed — reads through it fail fast.
	bound histories.Timestamp
	rerr  error
	// state is the pool generation shifted left once; its low bit, set at
	// finish, fails a handle kept past Commit, Abort or RecycleRead.
	state atomic.Uint64
	// slot is the reader's registry slot; hint is where the search for one
	// starts — the slot claimed last, so a pooled reader keeps returning to
	// the line its core already has cached, and two readers that met at one
	// slot once do not meet there again.
	slot *readerSlot
	hint uint64
	// calls counts ReadCalls since begin.  touched lists the objects read,
	// only when a sink wants their completion events; it starts on tbuf.
	calls   int64
	touched []*Object
	tbuf    [4]*Object
}

// slotFree marks an unclaimed slot: above every timestamp, so a scan takes
// the minimum over all slots alike.  readerSlots is the initial capacity,
// readSeqBlock the sequence numbers a pooled reader reserves at a time.
const (
	slotFree     = math.MaxInt64
	readerSlots  = 8
	readSeqBlock = 1024
)

// readerSlot is everything a reader writes that someone else reads, alone
// on its cache line.  pin is the compaction pin: slotFree, 0 (provisional:
// holds every horizon) or the reader's timestamp.  The counters belong to
// the slot, not to a reader: each reader that held it added its calls and
// its outcome at finish, and Stats sums them over the registry (a reader's
// Begun is its Committed or Aborted — it is counted when it finishes).
// last is the slot's previous ReadStamp, the tie-break that keeps two
// stamps from one sub-range of one gap apart; only the slot's holder
// touches it, and the pin's release and claim order one holder after the
// next.
type readerSlot struct {
	pin                       atomic.Int64
	committed, aborted, calls atomic.Int64
	last                      histories.Timestamp
	_                         [24]byte
}

type readerChunk struct {
	slots []readerSlot
	next  atomic.Pointer[readerChunk]
}

// readerRegistry tracks the active read-only transactions of a System so
// objects can pin their compaction horizons below every active reader: a
// grow-only chain of slot arrays, where readers claim and release slots by
// atomic operations on their own cache lines and never meet at a lock.
//
// Registration invariant — pin before load: a reader stores a provisional
// pin in its slot, loads the clock and stamps itself r in the gap above
// what it loaded (or, when ReadStamp declines, draws r from the clock),
// then raises the slot to r.  Pin store → reader's clock load → any writer
// clock RMW that issues a timestamp above r → that writer's fold scan is
// one order, Go's atomics being sequentially consistent (a mutex-guarded
// Clock gives it by happens-before).  So a scan that misses the pin ran
// before anything above r was issued — an entry above r cannot exist yet —
// and a scan that sees it holds the horizon at 0 or at r.
type readerRegistry struct {
	head atomic.Pointer[readerChunk]
}

// minTS returns the smallest pin of any active reader, slotFree when there
// is none.  Before a System's first reader it is a single load.
func (r *readerRegistry) minTS() histories.Timestamp {
	min := int64(slotFree)
	for c := r.head.Load(); c != nil; c = c.next.Load() {
		for i := range c.slots {
			if v := c.slots[i].pin.Load(); v < min {
				min = v
			}
		}
	}
	return histories.Timestamp(min)
}

// addTo adds the counters of every reader that has finished to snap.
func (r *readerRegistry) addTo(snap *StatsSnapshot) {
	for c := r.head.Load(); c != nil; c = c.next.Load() {
		for i := range c.slots {
			ok, ab := c.slots[i].committed.Load(), c.slots[i].aborted.Load()
			snap.Begun += ok + ab
			snap.Committed += ok
			snap.Aborted += ab
			snap.Calls += c.slots[i].calls.Load()
		}
	}
}

// pin claims a free slot, searching from hint, and leaves a provisional pin
// in it; it returns the slot and its global index — its position along the
// chain, which is the next search's hint and the reader's ReadStamp slot.
// When every slot is taken it appends a chunk of twice the size.
func (r *readerRegistry) pin(hint uint64) (*readerSlot, uint64) {
	link, size, base := &r.head, readerSlots, uint64(0)
	for {
		c := link.Load()
		if c == nil {
			c = &readerChunk{slots: make([]readerSlot, size)}
			for i := range c.slots {
				c.slots[i].pin.Store(slotFree)
			}
			if !link.CompareAndSwap(nil, c) {
				continue // lost the race: search the winner's chunk
			}
		}
		n := uint64(len(c.slots))
		for i := range n {
			// Chunk sizes are powers of two, so hint−base may wrap.
			at := (hint - base + i) % n
			if s := &c.slots[at]; s.pin.Load() == slotFree && s.pin.CompareAndSwap(slotFree, 0) {
				return s, base + at
			}
		}
		link, size, base = &c.next, 2*len(c.slots), base+n
	}
}

// BeginReadOnly starts a read-only transaction.  Its timestamp — and hence
// its serialization position — is fixed now: it will observe exactly the
// transactions that commit with earlier timestamps.  While it is active it
// holds back intention compaction system-wide, so close it promptly
// (Commit or Abort).
func (s *System) BeginReadOnly() *ReadTx { return s.BeginReadOnlyCtx(context.Background()) }

// BeginReadOnlyCtx starts a read-only transaction bound to ctx: cancelling
// ctx unblocks a reader waiting out a writer's commit window and fails
// subsequent reads with an error wrapping ctx.Err().  A nil ctx means
// context.Background.
func (s *System) BeginReadOnlyCtx(ctx context.Context) *ReadTx {
	return s.startRead(&ReadTx{sys: s}, ctx, 1)
}

// startRead makes tx — fresh or recycled — a new active reader: pin, load,
// raise (see readerRegistry).  The stamp comes from the gap above the
// clock when the System mints every timestamp itself, and from a draw
// otherwise or when ReadStamp declines.  A struct out of sequence numbers
// reserves block more; a fresh one starts its first slot search at the
// block's ordinal, which spreads structs that have yet to claim a slot.
func (s *System) startRead(tx *ReadTx, ctx context.Context, block uint64) *ReadTx {
	if ctx == nil {
		ctx = context.Background()
	}
	if tx.seq == tx.seqEnd {
		end := s.txSeq.Add(block)
		if tx.seqEnd == 0 {
			tx.hint = end / block
		}
		tx.seq, tx.seqEnd = end-block, end
	}
	tx.seq, tx.id, tx.ctx, tx.calls = tx.seq+1, "", ctx, 0
	tx.state.Store(tx.state.Load()&^1 + 2)
	tx.slot, tx.hint = s.readers.pin(tx.hint)
	ok := false
	if s.stamps != nil {
		tx.ts, ok = s.stamps.ReadStamp(tx.hint, tx.slot.last)
	}
	if ok {
		tx.slot.last = tx.ts
	} else {
		tx.ts = s.clock.Next(0)
	}
	tx.slot.pin.Store(int64(tx.ts))
	return tx
}

// readStamper is the clock side of a reader's stamp without a shared write
// (tstamp.Source.ReadStamp).
type readStamper interface {
	ReadStamp(slot uint64, last histories.Timestamp) (histories.Timestamp, bool)
}

// BeginReadOnlyBranch starts a read-only branch carrying an externally
// chosen identifier — the local leg of a cluster-wide snapshot.  The
// branch immediately pins compaction (provisionally, holding every
// horizon) but observes nothing until ActivateAt fixes its snapshot
// position; the caller must activate it before reading through it.
func (s *System) BeginReadOnlyBranch(ctx context.Context, id histories.TxID) *ReadTx {
	if ctx == nil {
		ctx = context.Background()
	}
	tx := &ReadTx{sys: s, id: id, ctx: ctx}
	tx.slot, _ = s.readers.pin(0) // on a stub it only keeps the branch's counters
	if s.remote != nil {
		// The pin lives on the serving shard; ReadBegin installs it there
		// and reports the shard clock's bound for timestamp election.  A
		// failed open leaves a sticky error: reads through the branch fail,
		// the snapshot as a whole aborts.
		tx.bound, tx.rerr = s.remote.ReadBegin(ctx, id)
	}
	return tx
}

// ClockBound reports the largest timestamp the branch's System may already
// have issued: the electing coordinator of a cluster-wide snapshot picks a
// timestamp above every branch's bound.  For a remote branch it is the
// serving shard's bound, captured when the branch opened.
func (t *ReadTx) ClockBound() histories.Timestamp {
	if t.sys.remote != nil {
		return t.bound
	}
	if c, ok := t.sys.clock.(interface{ Now() histories.Timestamp }); ok {
		return c.Now()
	}
	// A clock without Now: drawing a fresh timestamp over-approximates the
	// bound safely (the election only needs an upper bound on issued
	// timestamps).
	return t.sys.clock.Next(0)
}

// ActivateAt fixes a branch's snapshot timestamp: the compaction pin rises
// from its provisional 0 to ts, and the System clock observes ts so every
// local commit from here on serializes after the snapshot.  Must be called
// once, before any read through the branch.
func (t *ReadTx) ActivateAt(ts histories.Timestamp) {
	t.ts = ts
	if t.sys.remote != nil {
		if t.rerr == nil {
			t.rerr = t.sys.remote.ReadActivate(t.ctx, t.ID(), ts)
		}
		return
	}
	t.slot.pin.Store(int64(ts))
	t.sys.clock.Observe(ts)
}

// BranchErr reports the sticky error of a remote branch whose open or
// activation RPC failed: reads through the branch fail fast with it.  It
// is nil for healthy and local branches.  A cluster-wide snapshot uses it
// to name the shards its snapshot is missing.
func (t *ReadTx) BranchErr() error { return t.rerr }

// Context returns the context the reader was started with.
func (t *ReadTx) Context() context.Context { return t.ctx }

// ID returns the reader's identifier, materializing it on first use.
// Read-only identifiers carry an "R" prefix; verification uses it to apply
// the generalized well-formedness rules.
func (t *ReadTx) ID() histories.TxID {
	if t.id == "" {
		var buf [24]byte
		t.id = histories.TxID(strconv.AppendUint(append(buf[:0], 'R'), t.seq, 10))
	}
	return t.id
}

// Timestamp returns the reader's (start-chosen) serialization timestamp.
func (t *ReadTx) Timestamp() histories.Timestamp { return t.ts }

// done reports whether the reader has finished (or sits recycled).
func (t *ReadTx) done() bool { return t.state.Load()&1 != 0 }

// touch notes that the reader read o, for the completion events.
func (t *ReadTx) touch(o *Object) {
	if t.touched == nil {
		t.touched = t.tbuf[:0]
	}
	if !slices.Contains(t.touched, o) {
		t.touched = append(t.touched, o)
	}
}

// Commit finishes the reader, emitting its commit events so recorded
// histories place it at its timestamp.  No waiter needs signalling: reader
// completion releases only the compaction pin, which no blocked call waits
// on (folds never change grantability or the committed-tail state).
func (t *ReadTx) Commit() error { return t.finish(true) }

// Abort abandons the reader.  Because readers never acquire locks or write
// intentions, abort only releases the compaction pin.
func (t *ReadTx) Abort() error { return t.finish(false) }

func (t *ReadTx) finish(commit bool) error {
	cur := t.state.Load()
	if cur&1 != 0 || !t.state.CompareAndSwap(cur, cur|1) {
		return ErrTxDone
	}
	s := t.sys
	if s.remote != nil {
		// Release the shard-side pin, best-effort: a lost release resolves
		// when the connection drops.
		_ = s.remote.ReadComplete(context.Background(), t.ID(), commit)
	}
	// The reader's books go to its own cache line — one visit per reader,
	// to a line no other transaction writes — ahead of the store that gives
	// the line up.
	t.slot.calls.Add(t.calls)
	if commit {
		t.slot.committed.Add(1)
	} else {
		t.slot.aborted.Add(1)
	}
	t.slot.pin.Store(slotFree)
	for _, o := range t.touched { // empty unless a sink is attached
		e := histories.AbortEvent(t.ID(), o.name)
		if commit {
			e = histories.CommitEvent(t.ID(), o.name, t.ts)
		}
		// Transactions are single-threaded, so the event still sequences
		// after all of the reader's operations.
		s.recordDirect(e)
	}
	return nil
}

// ReadCall executes a read-only operation against the object's state as of
// the reader's timestamp.  The chosen response must not change the state
// (ErrNotReadOnly otherwise).  The call waits — bounded by the lock wait —
// while some update transaction could still commit below the reader's
// timestamp.
//
// On the fast path — timestamps all minted by this System's clock — the
// call never takes the object mutex: it checks the commit-window counter
// and reads the published committed-tail snapshot.  The counter check is
// sound because a writer that could still commit below the reader's
// timestamp must have drawn that timestamp before the reader loaded or
// drew its own (the clock is monotone, and a stamp lies below everything
// issued after its load), hence after incrementing the counter; a writer
// observed at zero has therefore already merged and published everything
// the reader may observe.
func (o *Object) ReadCall(t *ReadTx, inv spec.Invocation) (string, error) {
	_, res, err := o.read(t, inv, true)
	return res, err
}

// ReadState is ReadCall for a typed getter, whose inv is a pure observer of
// the object's spec.ReadSpec: it returns the snapshot state for the getter
// to take its answer from, and formats the response string only for a sink
// to record.  On a remote stub the state is nil and the string is the
// shard's answer.
func (o *Object) ReadState(t *ReadTx, inv spec.Invocation) (spec.State, string, error) {
	return o.read(t, inv, false)
}

// read is the one read path: it finds the state as of the reader's
// timestamp and answers from it (readFromSnapshot); str asks for the
// response string whether or not anyone else consumes it.
func (o *Object) read(t *ReadTx, inv spec.Invocation, str bool) (spec.State, string, error) {
	if t.done() {
		return nil, "", ErrTxDone
	}
	if t.rerr != nil { // a remote branch that failed to open
		return nil, "", fmt.Errorf("hybridcc: read of %s at %s: branch unusable: %w", inv, o.name, t.rerr)
	}
	t.calls++
	ctx := t.ctx
	if err := ctx.Err(); err != nil {
		return nil, "", fmt.Errorf("hybridcc: read of %s at %s: %w", inv, o.name, err)
	}
	if o.sys.remote != nil {
		res, err := o.sys.remote.ReadCall(ctx, t.ID(), o.name, inv)
		if err != nil {
			return nil, "", err
		}
		o.recordRead(t, inv, res)
		return nil, res, nil
	}
	if !o.sys.opts.ExternalTimestamps && o.windowWriters.Load() == 0 {
		return o.readFromSnapshot(t, inv, o.tailSnap.Load().stateAt(o.sp, t.ts), str)
	}

	o.mu.Lock()
	var cw callWait
	defer cw.release(o.sys)
	var ev []pendingEvent // the commit events of merges done here
	for o.mergeBelowLocked(t.ts, &ev) {
		cw.waiter(o.sys).allEvents = true // readers wait on transaction completion as such
		switch o.waitLocked(&o.mu, &cw, ctx) {
		case waitTimedOut:
			o.mu.Unlock()
			o.sys.flushEvents(ev)
			return nil, "", fmt.Errorf("%w: read of %s at %s", ErrTimeout, inv, o.name)
		case waitCancelled:
			o.mu.Unlock()
			o.sys.flushEvents(ev)
			return nil, "", fmt.Errorf("hybridcc: read of %s at %s: %w", inv, o.name, ctx.Err())
		}
	}
	state := o.snapshotLocked(t.ts)
	o.mu.Unlock()
	o.sys.flushEvents(ev)
	return o.readFromSnapshot(t, inv, state, str)
}

// mergeBelowLocked merges here, as their committers would (commitLocked),
// the transactions committed below ts but not yet merged here, appending the
// commit events to ev.  That is safe: txCommitted is published only once the
// commit record is durable (commitTx's steps 3 and 5), and the committer
// holds its grace slot until its own Object.commit, which then finds no
// record.  It reports whether a transaction remains that might still commit
// here below ts: one in txCommitting, whose timestamp may already be drawn —
// possibly below a reader that began right after the draw — and, with
// external timestamps, an active one whose bound is below ts (CommitAt may
// land it there).  Without them, an active transaction's commit draws from
// the shared clock and lands above every reader begun before it.
func (o *Object) mergeBelowLocked(ts histories.Timestamp, ev *[]pendingEvent) bool {
	blocked := false
	for i := 0; i < len(o.active); {
		lk := o.active[i]
		switch e, status := lk.tx.commitState(); {
		case status == txCommitted && e.ts < ts:
			o.release(lk.tx) // moves the last record into slot i
			*ev = o.commitLocked(lk, e, *ev, new(tailSnapshot), false)
			continue
		case status == txCommitting:
			blocked = true
		case status != txCommitted && o.sys.opts.ExternalTimestamps && lk.bound < ts:
			blocked = true
		}
		i++
	}
	return blocked
}

// readFromSnapshot answers a read from a reconstructed snapshot state and
// records it.  The response string exists where someone reads it: the
// caller (str), a sink, or the generic derivation that checks an
// invocation outside a spec.ReadSpec.  A read takes no lock, so it writes
// nothing at the object — not even a counter.
func (o *Object) readFromSnapshot(t *ReadTx, inv spec.Invocation, state spec.State, str bool) (spec.State, string, error) {
	s := o.sys
	if !str && s.opts.Sink == nil && o.readSp != nil {
		return state, "", nil
	}
	res, err := o.deriveRead(state, inv)
	if err != nil {
		return nil, "", err
	}
	o.recordRead(t, inv, res)
	return state, res, nil
}

// recordRead records a read's invoke and respond events, when a sink is
// attached, and notes the object for the reader's completion events.
func (o *Object) recordRead(t *ReadTx, inv spec.Invocation, res string) {
	if s := o.sys; s.opts.Sink != nil {
		t.touch(o)
		s.recordDirect(histories.InvokeEvent(t.ID(), o.name, inv))
		s.recordDirect(histories.RespondEvent(t.ID(), o.name, res))
	}
}

// deriveRead picks the response of a read-only invocation in a snapshot
// state and checks it leaves the state unchanged.  A spec.ReadSpec answers
// its pure observers in one step; the rest, refusals included, is generic.
func (o *Object) deriveRead(state spec.State, inv spec.Invocation) (string, error) {
	if o.readSp != nil {
		if res, ok := o.readSp.ReadResponse(state, inv); ok {
			return res, nil
		}
	}
	responses := o.sp.Responses(state, inv)
	if len(responses) == 0 {
		return "", fmt.Errorf("%w: %s has no response in snapshot of %s", ErrTimeout, inv, o.name)
	}
	res := responses[0]
	op := inv.With(res)
	next, ok := o.sp.Step(state, op)
	if !ok {
		panic(fmt.Sprintf("hybridcc: listed response %s illegal at %s", op, o.name))
	}
	if !o.sp.Equal(state, next) {
		return "", fmt.Errorf("%w: %s", ErrNotReadOnly, op)
	}
	return res, nil
}
