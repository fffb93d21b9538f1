package core

import (
	"hybridcc/internal/histories"
)

// appendedHook, when non-nil, runs between a logged commit's append and its
// merge: tests hold a commit inside the checkpoint's grace period with it.
var appendedHook func()

// commitTx is the commit event of the paper's LOCK machine — merge a
// transaction's intentions into the committed state at its timestamp and
// release its locks — and the only implementation of it: Tx.Commit,
// Tx.CommitAbove and Tx.CommitAt all end here.  t must already be in
// txCommitting.  ext, when non-zero, is an externally chosen timestamp
// (CommitAt); otherwise t draws its own.
//
// The steps, whose order the recovery and lock-free-read arguments rely on:
//
//  1. Enter windowWriters at every touched object BEFORE the timestamp is
//     drawn: a lock-free reader that observes a count of zero may rely on
//     every not-yet-counted committer drawing a timestamp above its own.
//  2. Draw the timestamp from the clock primed with Tx.bound, the largest
//     object clock t's grants saw — unique, and above every lock record's
//     bound: the paper's precedes ⊆ TS constraint at every object, without
//     visiting one.
//  3. Append-before-merge: the commit record is appended, and the log's
//     durability horizon passes it, before any object merges an intention.
//     Other committers' records may sit unsynced in the log meanwhile —
//     each as unmerged as this one — so no transaction can depend on a
//     commit the log might lose.  A grace slot is held from before the
//     append until every merge is done.
//  4. On append failure abort t, release every window, and return the
//     log's error; nothing merged.
//  5. Publish the timestamp and txCommitted together, so Timestamp() never
//     reports (0, true); the same critical section reads the identifier
//     and participant count the committed entries carry, and a prepared
//     branch leaves the pending set.
//  6. Merge at each object — one fold, one snapshot publication (into its
//     slot of one block for the whole call), one waiter scan each — and
//     release the object's window only after its new tail is published.
//     A reader that meets t committed below it may do this merge first
//     (mergeBelowLocked); Object.commit then finds nothing left to merge.
func (s *System) commitTx(t *Tx, ext histories.Timestamp) error {
	// touchedObjects leaves the list sorted in t.objs, which the log record
	// and the aborts below read.
	objs := t.touchedObjects()
	for _, o := range objs {
		o.windowWriters.Add(1)
	}

	ts, calls := ext, t.calls
	if ext != 0 {
		s.clock.Observe(ext) // locally minted timestamps stay ahead
	} else {
		ts = s.clock.Next(t.bound)
	}

	if s.log != nil {
		slot := s.ckpt.grace.enter() // until merged: see checkpointLocked
		defer slot.Add(-1)
		// A record naming no object and no sibling sites says nothing
		// recovery could use: an empty transaction pays no append and no
		// fsync.  (A cross-shard leg is logged even when empty — the
		// cluster's torn-commit check counts legs.)
		if r := s.walCommitRecord(t, objs, ts); len(r.Objs) > 0 || r.Participants > 0 {
			if err := s.log.AppendSync(r); err != nil {
				t.mu.Lock()
				t.status = txAborted
				t.mu.Unlock()
				for _, o := range objs {
					o.abort(t, true)
					o.windowWriters.Add(-1)
				}
				s.stats.Aborted.Add(1)
				s.stats.Calls.Add(calls)
				return err
			}
		}
		if appendedHook != nil {
			appendedHook()
		}
	}

	t.mu.Lock()
	t.ts = ts
	t.status = txCommitted
	// Without a sink the entries keep whatever identifier exists (possibly
	// none): a no-sink commit allocates no id string.
	if s.opts.Sink != nil {
		t.idLocked()
	}
	e := committedEntry{ts: ts, tx: t.id, parts: t.participants}
	if t.loggedPrepare {
		s.ckpt.pending.Delete(string(t.id))
	}
	t.mu.Unlock()

	// One block holds every object's new tail snapshot (see tailSnapshot).
	snaps := make([]tailSnapshot, len(objs))
	for i, o := range objs {
		ev := o.commit(t, e, t.ev[:0], &snaps[i])
		o.windowWriters.Add(-1)
		s.flushEvents(ev)
		t.ev = ev[:0]
	}
	s.stats.Committed.Add(1)
	s.stats.Calls.Add(calls)
	return nil
}
