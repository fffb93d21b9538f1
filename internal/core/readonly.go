package core

import (
	"context"
	"fmt"
	"strconv"
	"sync"

	"hybridcc/internal/histories"
	"hybridcc/internal/spec"
	"hybridcc/internal/tstamp"
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

// ReadTx is a read-only transaction with a start-time timestamp.  Like Tx,
// its identifier is materialized lazily from seq ("R<seq>"): a reader that
// records no events never allocates an identifier string.
type ReadTx struct {
	sys *System
	seq uint64
	ctx context.Context
	ts  histories.Timestamp

	// bound is the owning shard's clock bound learned when a remote branch
	// opened (ClockBound); rerr is the sticky error of a remote branch
	// whose open or activation RPC failed — reads through it fail fast.
	bound histories.Timestamp
	rerr  error

	mu      sync.Mutex
	id      histories.TxID
	done    bool
	touched map[*Object]bool
}

// readSet tracks the active read-only transactions of a System so objects
// can pin their compaction horizons below every active reader.
type readSet struct {
	mu     sync.Mutex
	active map[*ReadTx]histories.Timestamp
}

// minTS returns the smallest active reader timestamp and whether any
// reader is active.
func (r *readSet) minTS() (histories.Timestamp, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var min histories.Timestamp
	found := false
	for _, ts := range r.active {
		if !found || ts < min {
			min, found = ts, true
		}
	}
	return min, found
}

// register draws the reader's timestamp and installs its compaction pin
// in one critical section.  The two must be atomic with respect to minTS:
// otherwise a writer whose (later) timestamp is issued between the
// reader's draw and its registration could fold into the version before
// the pin lands, making the reader's snapshot unrecoverable.
func (r *readSet) register(tx *ReadTx, clock tstamp.Clock) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.active == nil {
		r.active = make(map[*ReadTx]histories.Timestamp)
	}
	tx.ts = clock.Next(0)
	r.active[tx] = tx.ts
}

// pin installs a provisional compaction pin at timestamp 0, freezing every
// horizon until repin fixes the reader's real timestamp.  A cluster-wide
// snapshot pins all shards first and only then chooses one timestamp above
// every shard clock; without the provisional pin, a commit landing between
// the choice and the registration could fold past the reader's snapshot.
func (r *readSet) pin(tx *ReadTx) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.active == nil {
		r.active = make(map[*ReadTx]histories.Timestamp)
	}
	r.active[tx] = 0
}

// repin raises tx's compaction pin to its chosen timestamp.
func (r *readSet) repin(tx *ReadTx, ts histories.Timestamp) {
	r.mu.Lock()
	r.active[tx] = ts
	r.mu.Unlock()
}

func (r *readSet) remove(tx *ReadTx) {
	r.mu.Lock()
	delete(r.active, tx)
	r.mu.Unlock()
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
	if ctx == nil {
		ctx = context.Background()
	}
	s.stats.Begun.Add(1)
	tx := &ReadTx{
		sys:     s,
		seq:     s.txSeq.Add(1),
		ctx:     ctx,
		touched: make(map[*Object]bool),
	}
	s.readers.register(tx, s.clock)
	return tx
}

// BeginReadOnlyBranch starts a read-only branch carrying an externally
// chosen identifier — the local leg of a cluster-wide snapshot.  The
// branch immediately pins compaction (at timestamp 0, holding every
// horizon) but observes nothing until ActivateAt fixes its snapshot
// position; the caller must activate it before reading through it.
func (s *System) BeginReadOnlyBranch(ctx context.Context, id histories.TxID) *ReadTx {
	if ctx == nil {
		ctx = context.Background()
	}
	s.stats.Begun.Add(1)
	tx := &ReadTx{
		sys:     s,
		id:      id,
		ctx:     ctx,
		touched: make(map[*Object]bool),
	}
	if s.remote != nil {
		// The pin lives on the serving shard; ReadBegin installs it there
		// and reports the shard clock's bound for timestamp election.  A
		// failed open leaves a sticky error: reads through the branch fail,
		// the snapshot as a whole aborts.
		tx.bound, tx.rerr = s.remote.ReadBegin(ctx, id)
		return tx
	}
	s.readers.pin(tx)
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
	if t.sys.remote != nil {
		t.ts = ts
		if t.rerr == nil {
			t.rerr = t.sys.remote.ReadActivate(t.ctx, t.ID(), ts)
		}
		return
	}
	t.sys.readers.repin(t, ts)
	t.ts = ts
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
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.idLocked()
}

func (t *ReadTx) idLocked() histories.TxID {
	if t.id == "" {
		var buf [24]byte
		t.id = histories.TxID(strconv.AppendUint(append(buf[:0], 'R'), t.seq, 10))
	}
	return t.id
}

// Timestamp returns the reader's (start-chosen) serialization timestamp.
func (t *ReadTx) Timestamp() histories.Timestamp { return t.ts }

// Commit finishes the reader, emitting its commit events so recorded
// histories place it at its timestamp.  No waiter needs signalling: reader
// completion releases only the compaction pin, which no blocked call waits
// on (folds never change grantability or the committed-tail state).
func (t *ReadTx) Commit() error {
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		return ErrTxDone
	}
	t.done = true
	objs := make([]*Object, 0, len(t.touched))
	for o := range t.touched {
		objs = append(objs, o)
	}
	t.mu.Unlock()

	if t.sys.remote != nil {
		// Release the shard-side pin, best-effort: a lost release resolves
		// when the connection drops.
		_ = t.sys.remote.ReadComplete(context.Background(), t.ID(), true)
	} else {
		t.sys.readers.remove(t)
	}
	if t.sys.opts.Sink != nil {
		for _, o := range objs {
			o.recordCompletion(histories.CommitEvent(t.ID(), o.name, t.ts))
		}
	}
	t.sys.stats.Committed.Add(1)
	return nil
}

// Abort abandons the reader.  Because readers never acquire locks or write
// intentions, abort only releases the compaction pin.
func (t *ReadTx) Abort() error {
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		return ErrTxDone
	}
	t.done = true
	objs := make([]*Object, 0, len(t.touched))
	for o := range t.touched {
		objs = append(objs, o)
	}
	t.mu.Unlock()

	if t.sys.remote != nil {
		_ = t.sys.remote.ReadComplete(context.Background(), t.ID(), false)
	} else {
		t.sys.readers.remove(t)
	}
	if t.sys.opts.Sink != nil {
		for _, o := range objs {
			o.recordCompletion(histories.AbortEvent(t.ID(), o.name))
		}
	}
	t.sys.stats.Aborted.Add(1)
	return nil
}

// recordCompletion records a reader completion event.  A sequenced sink
// takes its number directly (transactions are single-threaded, so the
// event still sequences after all of the reader's operations); a legacy
// sink keeps the object mutex around the Record call so its per-object
// stream stays ordered.
func (o *Object) recordCompletion(e histories.Event) {
	s := o.sys
	switch {
	case s.seqSink != nil:
		s.seqSink.RecordSeq(s.seqSink.NextSeq(), e)
	case s.opts.Sink != nil:
		o.mu.Lock()
		s.opts.Sink.Record(e)
		o.mu.Unlock()
	}
}

// ReadCall executes a read-only operation against the object's state as of
// the reader's timestamp.  The chosen response must not change the state
// (ErrNotReadOnly otherwise).  The call waits — bounded by the lock wait —
// while some update transaction could still commit below the reader's
// timestamp.
//
// On the fast path — timestamps all minted by this System's clock and no
// legacy (unsequenced) sink — the call never takes the object mutex: it
// checks the commit-window counter and reads the published committed-tail
// snapshot.  The counter check is sound because a writer that could still
// commit below the reader's timestamp must have drawn that timestamp
// before the reader's own (the clock is monotone), hence after
// incrementing the counter; a writer observed at zero has therefore
// already merged and published everything the reader may observe.
func (o *Object) ReadCall(t *ReadTx, inv spec.Invocation) (string, error) {
	if o.sys.remote != nil {
		return o.remoteReadCall(t, inv)
	}
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		return "", ErrTxDone
	}
	t.mu.Unlock()
	o.sys.stats.Calls.Add(1)

	ctx := t.ctx
	if err := ctx.Err(); err != nil {
		return "", fmt.Errorf("hybridcc: read of %s at %s: %w", inv, o.name, err)
	}

	if o.sys.fastReads && o.windowWriters.Load() == 0 {
		return o.readFromSnapshot(t, inv, o.tailSnap.Load().stateAt(o.sp, t.ts))
	}

	o.mu.Lock()
	var cw callWait
	defer cw.release(o.sys)
	for o.blockingWriterLocked(t.ts) != "" {
		cw.waiter(o.sys).allEvents = true // readers wait on transaction completion as such
		switch o.waitLocked(&cw, ctx) {
		case waitTimedOut:
			o.mu.Unlock()
			return "", fmt.Errorf("%w: read of %s at %s", ErrTimeout, inv, o.name)
		case waitCancelled:
			o.mu.Unlock()
			return "", fmt.Errorf("hybridcc: read of %s at %s: %w", inv, o.name, ctx.Err())
		}
	}

	state := o.snapshotLocked(t.ts)
	if o.sys.seqSink != nil || o.sys.opts.Sink == nil {
		o.mu.Unlock()
		return o.readFromSnapshot(t, inv, state)
	}
	// Legacy sink: derive and record inside the critical section so its
	// per-object stream stays ordered.
	res, err := deriveRead(o.sp, state, inv, o.name)
	if err != nil {
		o.mu.Unlock()
		return "", err
	}
	o.stats.granted.Add(1)
	o.sys.opts.Sink.Record(histories.InvokeEvent(t.ID(), o.name, inv))
	o.sys.opts.Sink.Record(histories.RespondEvent(t.ID(), o.name, res))
	o.mu.Unlock()
	t.mu.Lock()
	t.touched[o] = true
	t.mu.Unlock()
	return res, nil
}

// readFromSnapshot derives a read-only response from a reconstructed
// snapshot state and records it without holding the object mutex.
func (o *Object) readFromSnapshot(t *ReadTx, inv spec.Invocation, state spec.State) (string, error) {
	res, err := deriveRead(o.sp, state, inv, o.name)
	if err != nil {
		return "", err
	}
	t.mu.Lock()
	t.touched[o] = true
	t.mu.Unlock()
	o.stats.granted.Add(1)
	if o.sys.seqSink != nil {
		id := t.ID()
		o.sys.recordDirect(histories.InvokeEvent(id, o.name, inv))
		o.sys.recordDirect(histories.RespondEvent(id, o.name, res))
	}
	return res, nil
}

// deriveRead picks the response of a read-only invocation in a snapshot
// state and checks it leaves the state unchanged.
func deriveRead(sp spec.Spec, state spec.State, inv spec.Invocation, name histories.ObjID) (string, error) {
	responses := sp.Responses(state, inv)
	if len(responses) == 0 {
		return "", fmt.Errorf("%w: %s has no response in snapshot of %s", ErrTimeout, inv, name)
	}
	res := responses[0]
	op := inv.With(res)
	next, ok := sp.Step(state, op)
	if !ok {
		panic(fmt.Sprintf("hybridcc: listed response %s illegal at %s", op, name))
	}
	if !sp.Equal(state, next) {
		return "", fmt.Errorf("%w: %s", ErrNotReadOnly, op)
	}
	return res, nil
}

// blockingWriterLocked returns the id of a transaction that might still
// commit at this object with a timestamp below ts, or "" if none:
//
//   - a transaction already committed with an earlier timestamp whose
//     intentions have not yet merged here must be waited for (a short
//     window inside Commit);
//   - a transaction inside Commit that has not yet published its
//     timestamp (txCommitting) must also be waited for: its timestamp may
//     already be drawn from the clock — possibly below a reader that
//     begins right after the draw — and the reader cannot tell until it
//     is published;
//   - with ExternalTimestamps, an active transaction whose recorded bound
//     is below ts could still land below ts via CommitAt, so the reader
//     conservatively waits for it.  Without external timestamps, every
//     future commit draws from the shared clock and therefore lands above
//     the reader, so genuinely active transactions never block readers.
func (o *Object) blockingWriterLocked(ts histories.Timestamp) histories.TxID {
	for tx, lk := range o.active {
		wts, status := tx.commitState()
		switch status {
		case txCommitted:
			if wts < ts {
				return tx.ID()
			}
			// Serialized after the reader; invisible to it.
		case txCommitting:
			return tx.ID()
		default:
			if o.sys.opts.ExternalTimestamps && lk.bound < ts {
				return tx.ID()
			}
		}
	}
	return ""
}

// snapshotLocked reconstructs the committed state as of ts: the folded
// version (always a prefix of every active reader's snapshot, because
// readers pin the horizon) plus unforgotten intentions with earlier
// timestamps.  It shares the replay algorithm with the lock-free path by
// delegating to tailSnapshot.stateAt over a transient snapshot of the
// live fields — the two read paths cannot drift apart.
func (o *Object) snapshotLocked(ts histories.Timestamp) spec.State {
	snap := tailSnapshot{
		version:     o.version,
		unforgotten: o.unforgotten,
		tail:        o.committedTailLocked(),
		clock:       o.clock,
	}
	return snap.stateAt(o.sp, ts)
}
