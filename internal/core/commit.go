package core

import (
	"slices"
	"sync"

	"hybridcc/internal/histories"
	"hybridcc/internal/wal"
)

// commitScratch holds the buffers one commitTxs call works in.  The caller
// owns it for the duration of the call: every Tx carries one for its own
// commits (and stages its grant and abort events in ev between them), the
// batcher's leader carries one for queue batches.
type commitScratch struct {
	objs []*Object      // a multi-member batch's merge plan
	ev   []pendingEvent // staged sink events
	recs []wal.Record   // the batch's commit records
}

// appendedHook, when non-nil, runs between a logged commit's append and its
// merge: tests hold a commit inside the checkpoint's grace period with it.
var appendedHook func()

// commitTxs is the commit event of the paper's LOCK machine — merge a
// transaction's intentions into the committed state at its timestamp and
// release its locks — for a batch of one or more transactions, and the only
// implementation of it: Tx.Commit and Tx.CommitAt pass a batch of one, the
// group-commit queue a batch of many.  Every member must already be in
// txCommitting.  ext, when non-zero, is an externally chosen timestamp
// (CommitAt) for a batch of one; otherwise each member draws its own.
//
// The steps, whose order the recovery and lock-free-read arguments rely on:
//
//  1. Enter windowWriters at every touched object BEFORE any timestamp is
//     drawn: a lock-free reader that observes a count of zero may rely on
//     every not-yet-counted committer drawing a timestamp above its own.
//  2. Draw each member's timestamp, in batch order, from the clock primed
//     with Tx.bound, the largest object clock its grants saw — distinct,
//     increasing, above every lock record's bound: the paper's precedes ⊆
//     TS constraint at every object, without visiting one.
//  3. Append-before-merge: the batch's commit records are appended, and
//     the log's durability horizon passes them, before any object merges
//     an intention.  Other committers' records may sit unsynced in the
//     log meanwhile — each as unmerged as these — so no transaction can
//     depend on a commit the log might lose.  A grace slot is held from
//     before the append until every merge is done.
//  4. On append failure abort every member, release every window, and
//     return the log's error; nothing merged.
//  5. Publish each member's timestamp and txCommitted together, so
//     Timestamp() never reports (0, true); the same critical section reads
//     the identifier and participant count its committed entries carry, and
//     a prepared member leaves the pending set.
//  6. Merge per object in timestamp order — one fold, one snapshot
//     publication (into its slot of one block for the whole call), one
//     waiter scan each — and release the object's window only after its
//     new tail is published.
func (s *System) commitTxs(batch []*Tx, ext histories.Timestamp, sc *commitScratch) error {
	// touchedObjects leaves each member's own list sorted in its objs, which
	// the later steps read; a batch of one's list is already the plan.
	objs := batch[0].touchedObjects()
	if len(batch) > 1 {
		objs = append(sc.objs[:0], objs...)
		for _, t := range batch[1:] {
			for _, o := range t.touchedObjects() {
				if !slices.Contains(objs, o) {
					objs = append(objs, o)
				}
			}
		}
		sc.objs = objs
	}
	for _, o := range objs {
		o.windowWriters.Add(1)
	}

	var calls int64
	for _, t := range batch {
		if ext != 0 {
			t.drawn = ext
			s.clock.Observe(ext) // locally minted timestamps stay ahead
		} else {
			t.drawn = s.clock.Next(t.bound)
		}
		calls += t.calls
	}

	if s.log != nil {
		slot := s.ckpt.grace.enter() // until merged: see checkpointLocked
		defer slot.Add(-1)
		recs := sc.recs[:0]
		for _, t := range batch {
			// A record naming no object and no sibling sites says nothing
			// recovery could use: an empty transaction pays no append and
			// no fsync.  (A cross-shard leg is logged even when empty — the
			// cluster's torn-commit check counts legs.)
			if r := s.walCommitRecord(t, t.objs, t.drawn); len(r.Objs) > 0 || r.Participants > 0 {
				recs = append(recs, r)
			}
		}
		var err error
		if len(recs) > 0 {
			err = s.log.AppendBatchSync(recs)
		}
		clear(recs)
		sc.recs = recs[:0]
		if err != nil {
			for _, t := range batch {
				t.mu.Lock()
				t.status = txAborted
				t.mu.Unlock()
				for _, o := range t.objs {
					o.abort(t)
				}
			}
			for _, o := range objs {
				o.windowWriters.Add(-1)
			}
			s.stats.Aborted.Add(int64(len(batch)))
			s.stats.Calls.Add(calls)
			return err
		}
		if appendedHook != nil {
			appendedHook()
		}
	}

	for _, t := range batch {
		t.mu.Lock()
		t.ts = t.drawn
		t.status = txCommitted
		// Without a sink the entries keep whatever identifier exists
		// (possibly none): a no-sink commit allocates no id string.
		if s.opts.Sink != nil {
			t.idLocked()
		}
		t.entryID, t.entryParts = t.id, t.participants
		if t.loggedPrepare {
			s.ckpt.pending.Delete(string(t.id))
		}
		t.mu.Unlock()
	}

	// One block holds every object's new tail snapshot (see tailSnapshot).
	snaps := make([]tailSnapshot, len(objs))
	for i, o := range objs {
		ev := o.commitBatch(batch, sc.ev[:0], &snaps[i])
		o.windowWriters.Add(-1)
		s.flushEvents(ev)
		sc.ev = ev[:0]
	}
	s.stats.Committed.Add(int64(len(batch)))
	s.stats.Calls.Add(calls)
	return nil
}

// commitBatcher is group commit's queue: concurrent Tx.Commit calls are
// coalesced so commitTxs runs once per batch — one log sync, and per object
// one fold, one snapshot publication and one waiter scan — the way
// ARIES-style engines amortize their log forces.
//
// The combining discipline is flat: the first committer through becomes
// the leader and commits batches until the queue drains; later committers
// append themselves to the pending queue and block on their
// per-transaction channel (pooled with the Tx) for the batch's outcome.
type commitBatcher struct {
	sys *System

	mu      sync.Mutex
	pending []*Tx
	leading bool

	// Leader-only, reused across batches: the current batch (ping-ponged
	// with pending) and the commit scratch.
	batch []*Tx
	sc    commitScratch
}

// commit commits t (already txCommitting) through the queue and returns
// its batch's commitTxs outcome.
func (b *commitBatcher) commit(t *Tx) error {
	b.mu.Lock()
	if b.leading {
		if t.done == nil {
			t.done = make(chan error, 1)
		}
		b.pending = append(b.pending, t)
		b.mu.Unlock()
		return <-t.done
	}
	b.leading = true
	b.mu.Unlock()

	// Leader: commit own transaction first (nothing was pending, so the
	// first batch is a singleton), then drain whatever queued meanwhile.
	b.batch = append(b.batch[:0], t)
	own := b.run()
	for {
		b.mu.Lock()
		if len(b.pending) == 0 {
			b.leading = false
			b.mu.Unlock()
			return own
		}
		b.batch, b.pending = b.pending, b.batch[:0]
		b.mu.Unlock()
		// Every member of a drained batch is a blocked follower.  (The
		// leader's own transaction above is not: a token in its channel
		// would instantly release the struct's next pooled incarnation.)
		err := b.run()
		for _, f := range b.batch {
			f.done <- err
		}
	}
}

// run commits the current batch.
func (b *commitBatcher) run() error {
	b.sys.stats.GroupBatches.Add(1)
	b.sys.stats.GroupBatchTxs.Add(int64(len(b.batch)))
	return b.sys.commitTxs(b.batch, 0, &b.sc)
}
