package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hybridcc/internal/histories"
	"hybridcc/internal/spec"
	"hybridcc/internal/wal"
)

// checkpointState is the System's checkpointer: what the next checkpoint
// is built from besides the objects, the background trigger loop's
// lifecycle, and the counters CheckpointStats snapshots.
type checkpointState struct {
	// mu serializes checkpoint attempts; stop/wg run the background loop.
	mu   sync.Mutex
	stop chan struct{}
	wg   sync.WaitGroup
	// prev is the newest published checkpoint — this process's last, or
	// the one recovery loaded (guarded by mu).  pending maps each undecided
	// prepared branch to its record; logged commits hold a grace slot.
	prev    *wal.Checkpoint
	pending sync.Map // string → wal.Record
	grace   commitGrace

	checkpoints     atomic.Int64
	failures        atomic.Int64
	lastCutTS       atomic.Int64
	lastUnixNano    atomic.Int64
	bytesBase       atomic.Int64
	bytesReclaimed  atomic.Int64
	segmentsRemoved atomic.Int64
}

// CheckpointStats is a snapshot of the checkpointer's counters.
type CheckpointStats struct {
	// Checkpoints counts published checkpoints; Failures counts attempts
	// that did not publish (or published but failed to truncate).  A
	// failure never harms the log — the engine degrades to log-only
	// operation until an attempt succeeds.
	Checkpoints int64
	Failures    int64
	// LastCutTS is the newest published checkpoint's cut timestamp and
	// LastAge its age (zero when none was published this process).
	LastCutTS int64
	LastAge   time.Duration
	// BytesSince is the record bytes appended since the last published
	// checkpoint — the bytes-trigger's measure.  BytesReclaimed and
	// SegmentsRemoved total what truncation gave back to the filesystem.
	BytesSince      int64
	BytesReclaimed  int64
	SegmentsRemoved int64
}

// CheckpointStats returns the checkpointer's counters (zero without
// durability).
func (s *System) CheckpointStats() CheckpointStats {
	st := CheckpointStats{
		Checkpoints:     s.ckpt.checkpoints.Load(),
		Failures:        s.ckpt.failures.Load(),
		LastCutTS:       s.ckpt.lastCutTS.Load(),
		BytesReclaimed:  s.ckpt.bytesReclaimed.Load(),
		SegmentsRemoved: s.ckpt.segmentsRemoved.Load(),
	}
	if t := s.ckpt.lastUnixNano.Load(); t != 0 {
		st.LastAge = time.Since(time.Unix(0, t))
	}
	if s.log != nil {
		st.BytesSince = s.log.Stats().Bytes - s.ckpt.bytesBase.Load()
	}
	return st
}

// commitGrace is the checkpoint's grace period over logged commits: a
// commit holds a slot from before its append until after its merge, and
// wait returns once every commit holding one when it was called has left.
// Two slots let new commits enter one while the other drains.
type commitGrace struct {
	epoch atomic.Uint64
	slots [2]atomic.Int64
}

// enter takes the current slot; the caller leaves with Add(-1).  The
// epoch re-check keeps a commit out of a slot a wait is draining (it
// could sit there into the next wait, which drains the other one).
func (g *commitGrace) enter() *atomic.Int64 {
	for {
		e := g.epoch.Load()
		slot := &g.slots[e&1]
		slot.Add(1)
		if g.epoch.Load() == e {
			return slot
		}
		slot.Add(-1)
	}
}

// wait moves new commits to the other slot and waits for the old one to
// drain.
func (g *commitGrace) wait() {
	old := &g.slots[(g.epoch.Add(1)-1)&1]
	for old.Load() != 0 {
		time.Sleep(20 * time.Microsecond)
	}
}

// Checkpoint publishes a durable checkpoint of the committed state and
// truncates the log segments below its cut.  It overlaps normal traffic:
// after a brief per-object fold (one mutex acquisition each, never held
// across objects), the per-object images come from the lock-free
// committed-tail snapshots, so no transaction blocks.  Any failure — encoding,
// disk full, a crash injected by the failpoint — abandons only the attempt;
// the write-ahead log itself is untouched and the system keeps running
// log-only.  Requires durability and a finished recovery.
func (s *System) Checkpoint() error {
	if s.remote != nil {
		return fmt.Errorf("hybridcc: Checkpoint on a dialed cluster client: checkpoints run in the shard process")
	}
	if s.log == nil {
		return fmt.Errorf("hybridcc: Checkpoint without durability")
	}
	if !s.recoveryDone.Load() {
		return fmt.Errorf("hybridcc: Checkpoint before recovery finished")
	}
	s.ckpt.mu.Lock()
	defer s.ckpt.mu.Unlock()
	err := s.checkpointLocked()
	if err != nil {
		s.ckpt.failures.Add(1)
	}
	return err
}

// checkpointLocked takes one checkpoint from what the engine holds; it
// reads no segment and no checkpoint file.  The cut protocol:
//
//  1. Rotate the log: the returned live segment index is the cut.  Every
//     record appended so far lies below it, every later one at or above.
//  2. Grace: move new commits to the other in-flight slot and wait for the
//     old one to drain.  A logged commit holds its slot from before its
//     append until after its merge, so now every commit record below the
//     cut has merged.
//  3. Fold and snapshot each object: every commit below the cut is in its
//     snapshot, folded into the version or unforgotten.  The image is a
//     DurableState encoding, or for a spec without one the previous image
//     plus the entries the fold retained since; committed entries carry
//     their participant stamps.  Objects of the previous checkpoint nobody
//     registered are carried over unchanged.
//  4. Read the pending set after the snapshots: a prepared branch joins it
//     before its record is appended and leaves once its commit or abort
//     record is, so it holds every undecided branch below the cut, and no
//     branch it holds has a commit below the cut or in a snapshot.
//  5. Publish with the two-rename protocol, then unlink every sealed
//     segment below the cut — none while a recovered object is unclaimed.
//
// The images hold only synced commits because a commit merges after its
// fsync; releasing locks before the fsync would have to add a sync before
// publishing an image that holds a merged-but-unsynced commit.
func (s *System) checkpointLocked() error {
	live, err := s.log.Rotate()
	if err != nil {
		return err
	}
	s.ckpt.grace.wait()
	ck := &wal.Checkpoint{MaxSeq: s.txSeq.Load()}
	var prevObjects []wal.CheckpointObject
	if prev := s.ckpt.prev; prev != nil {
		ck.CutTS, ck.MaxSeq, prevObjects = prev.CutTS, max(ck.MaxSeq, prev.MaxSeq), prev.Objects
	}
	prevImages := make(map[string][]wal.CheckpointEntry)
	for _, co := range prevObjects {
		if !co.HasState {
			prevImages[co.Name] = co.ImageOps
		}
	}
	objs := s.Objects()
	sort.Slice(objs, func(i, j int) bool { return objs[i].name < objs[j].name }) // recovery seeds in this order
	ck.Objects = make([]wal.CheckpointObject, 0, len(objs))
	imaged := make([]int, len(objs)) // retained entries each image took
	for i, o := range objs {
		snap, frontier, folded := o.fold()
		co := wal.CheckpointObject{Name: string(o.name), Folded: int64(frontier), Clock: int64(snap.clock)}
		ck.CutTS = max(ck.CutTS, co.Clock)
		if ds, ok := o.sp.(spec.DurableSpec); ok {
			co.HasState = true
			if co.State, err = ds.EncodeState(snap.version); err != nil {
				return fmt.Errorf("hybridcc: checkpoint: encoding state of %s: %w", o.name, err)
			}
		} else {
			co.ImageOps, imaged[i] = fallbackImage(prevImages[co.Name], folded), len(folded)
		}
		for _, e := range snap.unforgotten {
			co.Unforgotten = append(co.Unforgotten, checkpointEntry(e))
		}
		ck.Objects = append(ck.Objects, co)
	}
	for _, co := range prevObjects {
		if s.objectByName(histories.ObjID(co.Name)) == nil {
			ck.Objects = append(ck.Objects, co) // nobody registered it
		}
	}
	s.ckpt.pending.Range(func(_, r any) bool {
		ck.Pending = append(ck.Pending, r.(wal.Record))
		return true
	})
	bytesNow := s.log.Stats().Bytes

	if _, err := wal.WriteCheckpoint(s.log.Dir(), ck); err != nil {
		return err
	}
	s.ckpt.prev = ck
	for i, o := range objs {
		if imaged[i] > 0 {
			o.mu.Lock()
			o.dropRetainedLocked(imaged[i])
			o.mu.Unlock()
		}
	}
	s.objmu.Lock()
	if s.recovered != nil && len(s.recovered.unclaimed) > 0 {
		live = 0 // an unclaimed object's records are in no snapshot
	}
	s.objmu.Unlock()
	reclaimed, removed, terr := s.log.TruncateBelow(live)
	s.ckpt.checkpoints.Add(1)
	s.ckpt.lastCutTS.Store(ck.CutTS)
	s.ckpt.lastUnixNano.Store(time.Now().UnixNano())
	s.ckpt.bytesBase.Store(bytesNow)
	s.ckpt.bytesReclaimed.Add(reclaimed)
	s.ckpt.segmentsRemoved.Add(int64(removed))
	if terr != nil {
		return fmt.Errorf("hybridcc: checkpoint published but truncation failed: %w", terr)
	}
	return nil
}

// fallbackImage is the committed-operations image of an object whose spec
// has no durable-state support: the previous checkpoint's image, then the
// entries the fold retained since.  Both are in timestamp order and the
// second starts at or above the previous image's horizon, so the result
// is too.
func fallbackImage(prev []wal.CheckpointEntry, folded []committedEntry) []wal.CheckpointEntry {
	img := slices.Clip(prev) // appending copies: prev is the last checkpoint's
	for _, e := range folded {
		img = append(img, checkpointEntry(e))
	}
	return img
}

// checkpointEntry converts a committed entry to its checkpoint form.
func checkpointEntry(e committedEntry) wal.CheckpointEntry {
	return wal.CheckpointEntry{Tx: string(e.tx), TS: int64(e.ts), Participants: e.parts, Ops: walOps(e.ops)}
}

// walOps converts spec operations to their log representation.
func walOps(ops []spec.Op) []wal.Op {
	out := make([]wal.Op, len(ops))
	for i, op := range ops {
		out[i] = wal.Op{Name: op.Name, Arg: op.Arg, Res: op.Res}
	}
	return out
}

// specOps converts log operations back to spec operations.
func specOps(ops []wal.Op) []spec.Op {
	out := make([]spec.Op, len(ops))
	for i, op := range ops {
		out[i] = spec.Op{Name: op.Name, Arg: op.Arg, Res: op.Res}
	}
	return out
}

// MarkRecoveryDone flips the recovery-done flag and, on a durable System
// with a checkpoint trigger configured, starts the background checkpointer.
// FinishRecovery calls it; a cluster calls it per shard once its composed
// recovery completes.
func (s *System) MarkRecoveryDone() {
	if s.recoveryDone.Swap(true) {
		return
	}
	d := s.opts.Durability
	if d == nil || s.log == nil || (d.CheckpointBytes <= 0 && d.CheckpointInterval <= 0) {
		return
	}
	// Bytes already in the log at startup are covered by recovery itself;
	// the bytes trigger measures appends from here.
	s.ckpt.bytesBase.Store(s.log.Stats().Bytes)
	stop := make(chan struct{})
	s.ckpt.mu.Lock()
	s.ckpt.stop = stop
	s.ckpt.mu.Unlock()
	s.ckpt.wg.Add(1)
	go s.checkpointLoop(stop, d.CheckpointBytes, d.CheckpointInterval)
}

// stopCheckpointer stops the background loop and waits it out; Close calls
// it before closing the log so no checkpoint attempt races the shutdown.
func (s *System) stopCheckpointer() {
	s.ckpt.mu.Lock()
	stop := s.ckpt.stop
	s.ckpt.stop = nil
	s.ckpt.mu.Unlock()
	if stop != nil {
		close(stop)
		s.ckpt.wg.Wait()
	}
}

// checkpointLoop polls the two triggers — bytes appended since the last
// checkpoint and checkpoint age — and takes a checkpoint when either is
// due.  A failed attempt is retried after a backoff (the engine runs
// log-only meanwhile); a closed or poisoned log ends the loop.
func (s *System) checkpointLoop(stop chan struct{}, bytes int64, interval time.Duration) {
	defer s.ckpt.wg.Done()
	poll := interval
	if bytes > 0 {
		if p := 25 * time.Millisecond; poll <= 0 || p < poll {
			poll = p
		}
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		due := bytes > 0 && s.log.Stats().Bytes-s.ckpt.bytesBase.Load() >= bytes
		if !due && interval > 0 {
			last := s.ckpt.lastUnixNano.Load()
			due = last == 0 || time.Since(time.Unix(0, last)) >= interval
		}
		if !due {
			continue
		}
		if err := s.Checkpoint(); err != nil {
			if errors.Is(err, wal.ErrClosed) {
				return
			}
			backoff := 250 * time.Millisecond
			if poll > backoff {
				backoff = poll
			}
			select {
			case <-stop:
				return
			case <-time.After(backoff):
			}
		}
	}
}
