package core

import (
	"fmt"
	"iter"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"hybridcc/internal/histories"
	"hybridcc/internal/spec"
	"hybridcc/internal/tstamp"
	"hybridcc/internal/wal"
)

// Durability configures the write-ahead commit log (internal/wal).  With
// it set, every commit appends its invocations to the log, and waits for
// the log's durability horizon to pass them, before merging them into any
// object — the append-before-merge rule: a transaction can observe
// another's effects only after the other's record is durable, so log order
// respects dependency order and truncating a torn tail — the window of
// records appended but not yet synced, none of them merged — is equivalent
// to those transactions having aborted.  Concurrent committers share
// fsyncs: one acknowledges every record appended before it started.
type Durability struct {
	// Dir is the log directory (per shard in a cluster).
	Dir string
	// Sync fsyncs on the commit path: a commit is acknowledged only once
	// its record is on stable storage.  Off, records are buffered
	// in-process (flushed on rotation and Close): cheap, but a process
	// crash loses the buffered tail.
	Sync bool
	// SegmentSize overrides the log rotation threshold (testing knob).
	SegmentSize int64
	// CheckpointBytes, when positive, makes the background checkpointer
	// take a checkpoint once that many record bytes have been appended
	// since the last one; CheckpointInterval, when positive, takes one at
	// that age.  Either (or both) starts the checkpointer when recovery
	// finishes; with both zero checkpointing is manual (System.Checkpoint).
	CheckpointBytes    int64
	CheckpointInterval time.Duration
}

// recoveredState carries what OpenSystem read from the log until recovery
// finishes: committed records awaiting replay, prepared-but-undecided
// branches awaiting resolution, the checkpoint the directory held (nil for
// a bare log), the base states its images decoded to, and the names replay
// found no registered object for.
type recoveredState struct {
	committed []wal.Record
	pending   []wal.Record
	maxSeq    uint64
	ckpt      *wal.Checkpoint
	bases     map[histories.ObjID]spec.State
	unclaimed map[histories.ObjID]bool
}

// OpenSystem is NewSystem returning errors: required when
// Options.Durability is set, since opening a log can fail and an existing
// log means there is state to recover.  The caller must then register
// every object the log references and call FinishRecovery (directly or
// through the resolve/replay pieces a cluster composes) before running
// transactions.
func OpenSystem(opts Options) (*System, error) {
	if opts.LockWait == 0 {
		opts.LockWait = DefaultLockWait
	}
	if opts.Clock == nil {
		opts.Clock = tstamp.NewSource()
	}
	s := &System{opts: opts, clock: opts.Clock}
	if st, ok := opts.Clock.(readStamper); ok && !opts.ExternalTimestamps {
		s.stamps = st
	}
	if d := opts.Durability; d != nil {
		l, recs, err := wal.Open(d.Dir, wal.Options{Sync: d.Sync, SegmentSize: d.SegmentSize})
		if err != nil {
			return nil, err
		}
		for _, r := range recs {
			if r.Kind.Ledger() {
				_ = l.Close()
				return nil, fmt.Errorf("core: %s holds a %s record: it is a coordinator's decision ledger, not a shard log", d.Dir, r.Kind)
			}
		}
		// The newest valid checkpoint bounds the replay: its images carry
		// everything below each object's fold frontier, so only the
		// surviving tail (and the checkpoint's own unforgotten entries)
		// replays.  A torn or CRC-bad checkpoint loads as an older one or
		// as nil — never an error that replay-from-zero could have served.
		ck, err := wal.LoadCheckpoint(d.Dir)
		if err != nil {
			_ = l.Close()
			return nil, err
		}
		s.log = l
		s.ckpt.prev = ck
		st := mergeRecovered(ck, recs)
		for _, r := range st.pending {
			s.ckpt.pending.Store(r.Tx, r)
		}
		for _, r := range st.committed {
			s.clock.Observe(histories.Timestamp(r.TS))
			if n, ok := txSeqOf(r.Tx); ok && n > st.maxSeq {
				st.maxSeq = n
			}
		}
		for _, r := range st.pending {
			if n, ok := txSeqOf(r.Tx); ok && n > st.maxSeq {
				st.maxSeq = n
			}
		}
		if ck != nil {
			s.clock.Observe(histories.Timestamp(ck.CutTS))
			if ck.MaxSeq > st.maxSeq {
				st.maxSeq = ck.MaxSeq
			}
		}
		// Never mint an identifier a recovered transaction already used: a
		// reused id would make the recorded history show one transaction
		// committing twice.
		if st.maxSeq > s.txSeq.Load() {
			s.txSeq.Store(st.maxSeq)
		}
		s.recovered = st
	}
	return s, nil
}

// mergeRecovered reconstructs the recovery state from the newest checkpoint
// and the surviving log records.  Pending branches are summarized over the
// checkpoint's carried pending set followed by the log, so resolutions in
// the tail retire carried branches.  The committed set merges, per
// transaction, the checkpoint's unforgotten legs with the log's commit
// records — dropping every leg the checkpoint image already contains
// (timestamp below the object's fold frontier, or the transaction present
// in its unforgotten set), so nothing replays twice.  A transaction whose
// every leg folded into the images vanishes from replay entirely: restart
// cost is bounded by activity since the checkpoint, not by history.
func mergeRecovered(ck *wal.Checkpoint, recs []wal.Record) *recoveredState {
	if ck == nil {
		sum := wal.Summarize(recs)
		return &recoveredState{committed: sum.Committed, pending: sum.Pending}
	}
	combined := make([]wal.Record, 0, len(ck.Pending)+len(recs))
	combined = append(combined, ck.Pending...)
	combined = append(combined, recs...)
	sum := wal.Summarize(combined)

	type objIdx struct {
		folded int64
		txs    map[string]bool
	}
	idx := make(map[string]*objIdx, len(ck.Objects))
	merged := make(map[string]*wal.Record)
	var order []string
	addLeg := func(tx string, ts int64, participants int, obj string, ops []wal.Op) {
		r := merged[tx]
		if r == nil {
			r = &wal.Record{Kind: wal.KindCommit, Tx: tx, TS: ts}
			merged[tx] = r
			order = append(order, tx)
		}
		if participants > r.Participants {
			r.Participants = participants
		}
		for i := range r.Objs {
			if r.Objs[i].Obj == obj {
				return // leg already carried by the checkpoint
			}
		}
		r.Objs = append(r.Objs, wal.ObjOps{Obj: obj, Ops: ops})
	}
	for _, o := range ck.Objects {
		oi := &objIdx{folded: o.Folded, txs: make(map[string]bool, len(o.Unforgotten))}
		for _, e := range o.Unforgotten {
			oi.txs[e.Tx] = true
			addLeg(e.Tx, e.TS, e.Participants, o.Name, e.Ops)
		}
		idx[o.Name] = oi
	}
	for _, r := range sum.Committed {
		for _, oo := range r.Objs {
			if oi := idx[oo.Obj]; oi != nil {
				if r.TS < oi.folded || oi.txs[r.Tx] {
					continue // already inside the image / unforgotten set
				}
			}
			addLeg(r.Tx, r.TS, r.Participants, oo.Obj, oo.Ops)
		}
	}
	st := &recoveredState{pending: sum.Pending, ckpt: ck}
	st.committed = make([]wal.Record, 0, len(order))
	for _, tx := range order {
		st.committed = append(st.committed, *merged[tx])
	}
	return st
}

// txSeqOf parses the numeric suffix of a runtime-minted identifier
// ("T<n>"); externally chosen ids fail the parse and constrain nothing.
func txSeqOf(id string) (uint64, bool) {
	if !strings.HasPrefix(id, "T") {
		return 0, false
	}
	n, err := strconv.ParseUint(id[1:], 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// Close stops the background checkpointer (if any) and flushes and closes
// the commit log.  A volatile System closes as a no-op.  Close after every
// transaction has completed; commits issued after Close fail rather than
// silently losing durability.
func (s *System) Close() error {
	s.stopCheckpointer()
	if s.log == nil {
		return nil
	}
	return s.log.Close()
}

// CrashLog simulates process death for crash tests: the log's unflushed
// buffer is dropped and its file closed, exactly as a kill -9 at this
// instant; in-memory state is untouched, so a test can compare the
// survivor against it.  No-op without durability.
func (s *System) CrashLog() {
	if s.log != nil {
		s.log.Crash()
	}
}

// LogStats returns the commit log's counters (zero without durability).
func (s *System) LogStats() wal.Stats {
	if s.log == nil {
		return wal.Stats{}
	}
	return s.log.Stats()
}

// RecoveredOps is one recovered transaction's operation sequence at one
// object of one System.
type RecoveredOps struct {
	Sys *System
	Obj histories.ObjID
	Ops []spec.Op
}

// RecoveredTx is one transaction reconstructed from a commit log:
// committed (TS set) or prepared-but-undecided (TS zero, awaiting
// ResolvePending or AbandonPending).  Participants is the site count the
// commit record was stamped with (see wal.Record); a cluster merging
// cross-shard transactions checks it against the legs actually found.
type RecoveredTx struct {
	ID           histories.TxID
	TS           histories.Timestamp
	Participants int
	Ops          []RecoveredOps
}

// recoveredTxOf converts a log record into the replay representation.
func (s *System) recoveredTxOf(r wal.Record) RecoveredTx {
	tx := RecoveredTx{ID: histories.TxID(r.Tx), TS: histories.Timestamp(r.TS), Participants: r.Participants}
	for _, oo := range r.Objs {
		ops := make([]spec.Op, len(oo.Ops))
		for i, op := range oo.Ops {
			ops[i] = spec.Op{Name: op.Name, Arg: op.Arg, Res: op.Res}
		}
		tx.Ops = append(tx.Ops, RecoveredOps{Sys: s, Obj: histories.ObjID(oo.Obj), Ops: ops})
	}
	return tx
}

// RecoveredCommittedSeq yields the committed transactions read from the log
// (plus any ResolvePending resolutions) in timestamp order, converting each
// record lazily so replay holds one transaction's materialized form at a
// time instead of the whole log's.
func (s *System) RecoveredCommittedSeq() iter.Seq[RecoveredTx] {
	return func(yield func(RecoveredTx) bool) {
		if s.recovered == nil {
			return
		}
		recs := s.recovered.committed
		order := make([]int, len(recs))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(i, j int) bool { return recs[order[i]].TS < recs[order[j]].TS })
		for _, i := range order {
			if !yield(s.recoveredTxOf(recs[i])) {
				return
			}
		}
	}
}

// RecoveredPending returns prepared-but-undecided branches read from the
// log: participants that voted yes in two-phase commit and crashed before
// learning the decision.  The caller resolves each from its coordinator's
// decision record (ResolvePending) or presumes it aborted
// (AbandonPending).
func (s *System) RecoveredPending() []RecoveredTx {
	if s.recovered == nil {
		return nil
	}
	out := make([]RecoveredTx, 0, len(s.recovered.pending))
	for _, r := range s.recovered.pending {
		out = append(out, s.recoveredTxOf(r))
	}
	return out
}

// MaxRecoveredSeq reports the largest runtime-minted transaction sequence
// number seen in the log, so an owner minting ids above this System (a
// cluster) can keep its own counter ahead too.
func (s *System) MaxRecoveredSeq() uint64 {
	if s.recovered == nil {
		return 0
	}
	return s.recovered.maxSeq
}

// ResolvePending resolves a recovered prepared branch as committed at ts —
// the coordinator's logged decision — making the resolution durable (a
// commit record, so the next recovery needs no coordinator) before moving
// the branch into the committed set for Replay.
func (s *System) ResolvePending(id histories.TxID, ts histories.Timestamp) error {
	if s.recovered == nil {
		return fmt.Errorf("hybridcc: ResolvePending(%s): no recovery in progress", id)
	}
	for i, r := range s.recovered.pending {
		if r.Tx != string(id) {
			continue
		}
		rec := wal.Record{Kind: wal.KindCommit, Tx: r.Tx, TS: int64(ts), Objs: r.Objs}
		if err := s.log.AppendSync(rec); err != nil {
			return err
		}
		s.ckpt.pending.Delete(r.Tx)
		s.recovered.committed = append(s.recovered.committed, rec)
		s.recovered.pending = append(s.recovered.pending[:i], s.recovered.pending[i+1:]...)
		s.clock.Observe(ts)
		return nil
	}
	return fmt.Errorf("hybridcc: ResolvePending(%s): no such prepared branch", id)
}

// AbandonPending applies the presumed-abort rule to every still-unresolved
// prepared branch: no decision record means the coordinator never
// committed, so the branch aborted.  Abort records make the next recovery
// skip the prepared records without re-deriving this.
func (s *System) AbandonPending() error {
	if s.recovered == nil || len(s.recovered.pending) == 0 {
		return nil
	}
	for _, r := range s.recovered.pending {
		if err := s.log.Append(wal.Record{Kind: wal.KindAbort, Tx: r.Tx}); err != nil {
			return err
		}
		s.ckpt.pending.Delete(r.Tx)
	}
	if err := s.log.Sync(); err != nil {
		return err
	}
	s.recovered.pending = nil
	return nil
}

// AbandonPendingTx applies the presumed-abort rule to ONE recovered
// prepared branch: a shard server resolving its pending set incrementally
// (decisions and presumed aborts arriving over the wire in any order) uses
// it instead of the all-at-once AbandonPending.  The abort record is
// synced so the resolution survives a second crash.
func (s *System) AbandonPendingTx(id histories.TxID) error {
	if s.recovered == nil {
		return fmt.Errorf("hybridcc: AbandonPendingTx(%s): no recovery in progress", id)
	}
	for i, r := range s.recovered.pending {
		if r.Tx != string(id) {
			continue
		}
		if err := s.log.Append(wal.Record{Kind: wal.KindAbort, Tx: r.Tx}); err != nil {
			return err
		}
		s.ckpt.pending.Delete(r.Tx)
		if err := s.log.Sync(); err != nil {
			return err
		}
		s.recovered.pending = append(s.recovered.pending[:i], s.recovered.pending[i+1:]...)
		return nil
	}
	return fmt.Errorf("hybridcc: AbandonPendingTx(%s): no such prepared branch", id)
}

// FinishRecovery completes a standalone System's recovery: presumed-abort
// every undecided prepared branch, seed every checkpointed object from its
// durable image, then stream-replay the committed transactions on top.
// Call it after registering every object the log (or checkpoint)
// references; a Cluster composes the pieces itself (decision-record
// resolution between them).  Completion flips the recovery-done flag,
// which starts the background checkpointer when one is configured.
func (s *System) FinishRecovery() error {
	if err := s.AbandonPending(); err != nil {
		return err
	}
	if err := s.SeedCheckpointObjects(); err != nil {
		return err
	}
	if err := ReplayStream(s.RecoveredCommittedSeq()); err != nil {
		return err
	}
	s.MarkRecoveryDone()
	return nil
}

// SeedCheckpointObjects installs each checkpointed object's durable image:
// the committed version and fold frontier come from the checkpoint, the
// committed tail starts empty — the checkpoint's unforgotten entries
// replay through the normal recovery path on top, exactly like surviving
// commit records.  Checkpointed objects no one registered are remembered
// as unclaimed (late registration panics), except objects the checkpoint
// proves never committed anything — skipping those loses nothing.
func (s *System) SeedCheckpointObjects() error {
	if s.recovered == nil || s.recovered.ckpt == nil {
		return nil
	}
	ck := s.recovered.ckpt
	for _, co := range ck.Objects {
		o := s.objectByName(histories.ObjID(co.Name))
		if o == nil {
			if co.Clock == 0 && len(co.Unforgotten) == 0 {
				continue // never saw a commit: its image is the initial state
			}
			s.markUnclaimed(histories.ObjID(co.Name))
			continue
		}
		var base spec.State
		if co.HasState {
			ds, ok := o.sp.(spec.DurableSpec)
			if !ok {
				return fmt.Errorf("hybridcc: checkpoint %s holds a state image for %s but specification %s has no durable-state support", ck.Name, co.Name, o.sp.Name())
			}
			st, err := ds.DecodeState(co.State)
			if err != nil {
				return fmt.Errorf("hybridcc: checkpoint %s: decoding state of %s: %w", ck.Name, co.Name, err)
			}
			base = st
		} else {
			st := o.sp.Init()
			for _, e := range co.ImageOps {
				next, ok := spec.StepFrom(o.sp, st, specOps(e.Ops)...)
				if !ok {
					return fmt.Errorf("hybridcc: checkpoint %s: image replay of %s at %s is illegal — checkpoint corrupt or specification changed", ck.Name, e.Tx, co.Name)
				}
				st = next
			}
			base = st
		}
		o.mu.Lock()
		o.resetLocked(base, histories.Timestamp(co.Folded), histories.Timestamp(co.Clock))
		o.publishLocked(new(tailSnapshot))
		o.mu.Unlock()
		if s.recovered.bases == nil {
			s.recovered.bases = make(map[histories.ObjID]spec.State)
		}
		s.recovered.bases[histories.ObjID(co.Name)] = base
	}
	return nil
}

// RecoveredBases returns the per-object base states recovery seeded from
// the checkpoint images (nil when recovery had no checkpoint).  Offline
// verification replays each object from its base instead of the initial
// state: the transactions folded into an image are exactly the ones whose
// events predate the recorder, so the recorded history is only legal from
// the image's state on.
func (s *System) RecoveredBases() map[histories.ObjID]spec.State {
	if s.recovered == nil {
		return nil
	}
	return s.recovered.bases
}

// RecoveredCheckpointFrontier describes what the recovery checkpoint (if
// any) durably covers: cut is its cut timestamp; coveredBelow is the
// frontier below which every committed transaction's effects at every
// checkpointed object are inside the images — the minimum fold horizon
// across the checkpoint's objects; foldedBelow is the maximum fold
// horizon — the bound above which no entry can have been folded into any
// image.  All are zero without a checkpoint (or with an empty one, which
// covers nothing).
//
// A cluster uses the frontiers to account for commit-record legs a shard's
// checkpoint folded away: a cross-shard transaction with a timestamp below
// coveredBelow needs no commit record here whatever objects its leg
// touched, and with fsynced logs a leg that left no trace at all must have
// been truncated-because-folded, which puts it below foldedBelow.
func (s *System) RecoveredCheckpointFrontier() (cut, coveredBelow, foldedBelow histories.Timestamp) {
	if s.recovered == nil || s.recovered.ckpt == nil {
		return 0, 0, 0
	}
	ck := s.recovered.ckpt
	if len(ck.Objects) == 0 {
		return histories.Timestamp(ck.CutTS), 0, 0
	}
	covered := histories.Timestamp(ck.Objects[0].Folded)
	folded := covered
	for _, co := range ck.Objects[1:] {
		f := histories.Timestamp(co.Folded)
		if f < covered {
			covered = f
		}
		if f > folded {
			folded = f
		}
	}
	return histories.Timestamp(ck.CutTS), covered, folded
}

// Replay applies recovered committed transactions — possibly spanning
// several Systems, as a cluster's shards do — in timestamp order: for each
// transaction, its operations are validated against each object's serial
// specification, its invoke/respond events are emitted, then its commit
// events, and its intentions join each object's committed tail.  Emitting
// each transaction's full event set before the next yields a serial
// history in timestamp order: well-formed by construction (no invocation
// ever follows one of the transaction's commit events) and trivially
// hybrid atomic, so Verify over pre-crash plus post-crash events still
// proves the combined history.  Operations at objects not (yet)
// registered are skipped and remembered: registering such an object later
// panics, because its events could no longer be emitted well-formed.
//
// Each leg merges the way a live in-order commit does.  Replay runs once,
// single-threaded, before the System accepts transactions.
func Replay(txs []RecoveredTx) error {
	sort.Slice(txs, func(i, j int) bool { return txs[i].TS < txs[j].TS })
	return ReplayStream(slices.Values(txs))
}

// ReplayStream is Replay over an iterator: transactions must arrive in
// nondecreasing timestamp order (RecoveredCommittedSeq yields them so) and
// each is validated, applied, and released before the next materializes,
// so replay memory is bounded by one transaction rather than the log.
func ReplayStream(txs iter.Seq[RecoveredTx]) error {
	type leg struct {
		o    *Object
		ops  []spec.Op
		next spec.State
	}
	var legs []leg
	started := false
	var last histories.Timestamp
	for tx := range txs {
		if started && tx.TS < last {
			return fmt.Errorf("hybridcc: recovery replay stream out of timestamp order (%d after %d)", tx.TS, last)
		}
		started, last = true, tx.TS
		legs = legs[:0]
		for _, ro := range tx.Ops {
			o := ro.Sys.objectByName(ro.Obj)
			if o == nil {
				ro.Sys.markUnclaimed(ro.Obj)
				continue
			}
			next, ok := spec.StepFrom(o.sp, o.CommittedState(), ro.Ops...)
			if !ok {
				return fmt.Errorf("hybridcc: recovery replay of %s at %s is illegal — log corrupt or specification changed", tx.ID, ro.Obj)
			}
			legs = append(legs, leg{o: o, ops: ro.Ops, next: next})
		}
		for _, lg := range legs {
			for _, op := range lg.ops {
				lg.o.sys.recordDirect(histories.InvokeEvent(tx.ID, lg.o.name, op.Inv()))
				lg.o.sys.recordDirect(histories.RespondEvent(tx.ID, lg.o.name, op.Res))
			}
		}
		for _, lg := range legs {
			o := lg.o
			o.sys.recordDirect(histories.CommitEvent(tx.ID, o.name, tx.TS))
			o.mu.Lock()
			o.mergeLocked(committedEntry{ts: tx.TS, tx: tx.ID, parts: tx.Participants, ops: lg.ops}, lg.next)
			o.publishLocked(new(tailSnapshot))
			o.mu.Unlock()
			o.stats.commits.Add(1)
		}
		for i, lg := range legs {
			counted := false
			for _, prev := range legs[:i] {
				if prev.o.sys == lg.o.sys {
					counted = true
					break
				}
			}
			if !counted {
				lg.o.sys.stats.Recovered.Add(1)
			}
		}
	}
	return nil
}

// objectByName returns the registered object named name, or nil.
func (s *System) objectByName(name histories.ObjID) *Object {
	s.objmu.Lock()
	defer s.objmu.Unlock()
	return s.objects[name]
}

// LookupObject returns the registered object named name, or nil — the
// shard server's dispatch from wire names to objects.
func (s *System) LookupObject(name histories.ObjID) *Object {
	return s.objectByName(name)
}

// Objects returns a snapshot of every registered object (map order), for
// the checkpointer and a shard server's statistics endpoint.
func (s *System) Objects() []*Object {
	s.objmu.Lock()
	defer s.objmu.Unlock()
	objs := make([]*Object, 0, len(s.objects))
	for _, o := range s.objects {
		objs = append(objs, o)
	}
	return objs
}

// SetObjectScheme switches the named object's active concurrency-control
// policy (see Object.SetScheme).  It errors when no object is registered
// under name or the object has no policy for the scheme.
func (s *System) SetObjectScheme(name, scheme string) error {
	o := s.objectByName(histories.ObjID(name))
	if o == nil {
		return fmt.Errorf("hybridcc: SetObjectScheme(%q): no such object", name)
	}
	return o.SetScheme(scheme)
}

// markUnclaimed remembers that replay skipped recovered operations at an
// object no one registered.
func (s *System) markUnclaimed(name histories.ObjID) {
	s.objmu.Lock()
	defer s.objmu.Unlock()
	if s.recovered.unclaimed == nil {
		s.recovered.unclaimed = make(map[histories.ObjID]bool)
	}
	s.recovered.unclaimed[name] = true
}

// HasUnclaimedRecovery reports whether recovery replay skipped committed
// operations at name because no object was registered under it — the
// public registration path turns this into an error before the core-level
// panic can trigger.
func (s *System) HasUnclaimedRecovery(name string) bool {
	s.objmu.Lock()
	defer s.objmu.Unlock()
	return s.recovered != nil && s.recovered.unclaimed[histories.ObjID(name)]
}

// registerObject numbers a new object and indexes it by name for replay.
func (s *System) registerObject(o *Object) {
	s.objmu.Lock()
	defer s.objmu.Unlock()
	if s.recovered != nil && s.recovered.unclaimed[o.name] {
		panic(fmt.Sprintf("hybridcc: object %s has recovered committed operations but was registered after recovery replay; register every logged object before FinishRecovery", o.name))
	}
	if s.objects == nil {
		s.objects = make(map[histories.ObjID]*Object)
	}
	o.ord = len(s.objects)
	s.objects[o.name] = o
}

// walCommitRecord builds t's commit record: its identifier, timestamp, and
// per-object intentions (read under each object's mutex; the transaction
// is past txActive, so they can no longer change).
func (s *System) walCommitRecord(t *Tx, objs []*Object, ts histories.Timestamp) wal.Record {
	t.mu.Lock()
	parts := t.participants
	t.mu.Unlock()
	r := wal.Record{Kind: wal.KindCommit, Tx: string(t.ID()), TS: int64(ts), Participants: parts}
	r.Objs = walObjOps(t, objs)
	return r
}

// walPreparedRecord builds t's prepared record (the vote that must survive
// a participant crash).
func (s *System) walPreparedRecord(t *Tx, objs []*Object) wal.Record {
	return wal.Record{Kind: wal.KindPrepared, Tx: string(t.ID()), Objs: walObjOps(t, objs)}
}

func walObjOps(t *Tx, objs []*Object) []wal.ObjOps {
	out := make([]wal.ObjOps, 0, len(objs))
	for _, o := range objs {
		oo := wal.ObjOps{Obj: string(o.name)}
		o.mu.Lock()
		if lk := o.lockOf(t); lk != nil {
			oo.Ops = walOps(lk.ops)
		}
		o.mu.Unlock()
		out = append(out, oo)
	}
	return out
}
