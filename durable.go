package hybridcc

import (
	"hybridcc/internal/cluster"
	"hybridcc/internal/core"
	"hybridcc/internal/histories"
)

// This file is the durable face of the library: Open and OpenCluster give
// a System or Cluster a write-ahead commit log and recover committed state
// from an existing one.  See internal/wal for the log format and README's
// "Durability architecture" for the invariants.

// WithFsync controls whether commits fsync the log before acknowledging
// (Open/OpenCluster only; default on).  Off, records are buffered
// in-process and flushed on segment rotation and Close: markedly faster,
// and still recoverable after a clean Close — but a crash loses the
// buffered tail (those transactions recover as aborted, never as torn).
//
// On a cluster, fsync off weakens the crash story further: each shard log
// loses an independent amount of tail, so a cross-shard transaction's
// commit record can survive on one shard and be lost on another.  Commit
// records carry their participant count, so OpenCluster detects the
// missing leg and refuses to recover the directory (an error naming the
// torn transaction) rather than silently replaying it on a subset of its
// shards.  Leave fsync on when cross-shard recovery after a hard crash
// must always succeed.
func WithFsync(on bool) Option {
	return func(c *config) { c.fsync, c.fsyncSet = on, true }
}

// WithSegmentSize overrides the log segment rotation threshold in bytes
// (Open/OpenCluster only); zero keeps the default.  Mainly a testing knob
// for exercising rotation and torn-tail repair on small logs.
func WithSegmentSize(bytes int64) Option {
	return func(c *config) { c.segmentSize = bytes }
}

// WithCheckpointBytes starts a background checkpointer that takes a
// checkpoint whenever at least n bytes have been appended to the log since
// the last one (Open/OpenCluster only; per shard on a cluster).  A
// checkpoint captures every object's committed state and the surviving
// prepared-undecided branches, then truncates the log segments it covers —
// bounding both recovery replay time and disk usage.  Zero (the default)
// disables the bytes trigger; Checkpoint remains available manually.
func WithCheckpointBytes(n int64) Option {
	return func(c *config) { c.checkpointBytes = n }
}

// durabilityOf builds the core durability config from the option set.
func (c *config) durabilityOf(dir string) *core.Durability {
	sync := true
	if c.fsyncSet {
		sync = c.fsync
	}
	return &core.Durability{
		Dir:             dir,
		Sync:            sync,
		SegmentSize:     c.segmentSize,
		CheckpointBytes: c.checkpointBytes,
	}
}

// Open is NewSystem with a durable write-ahead commit log in dir: every
// commit is logged (and, by default, fsynced) before its effects become
// visible, and reopening the directory recovers every logged commit.
//
// The setup callback registers the system's objects — NewAccount,
// NewCustom, and the rest work exactly as after NewSystem.  It runs before
// recovery replay: recovered transactions must be replayed in one global
// timestamp order after every object exists, so that a shared Recorder
// sees a well-formed serial prefix and Verify proves atomicity across the
// crash.  Registering an object the log references outside the callback is
// an error.
//
// A crash — process death at any instant — loses only transactions whose
// commit records never fully reached the disk; those recover as aborted.
// Everything acknowledged by Commit (with fsync on) is recovered, cross-
// shard decisions included.  Close the returned System to flush and
// release the log.
func Open(dir string, setup func(*System) error, opts ...Option) (*System, error) {
	var c config
	for _, o := range opts {
		o(&c)
	}
	coreOpts := core.Options{
		LockWait:          c.lockWait,
		DeadlockDetection: c.deadlockDetection,
		Durability:        c.durabilityOf(dir),
	}
	if c.recorder != nil {
		coreOpts.Sink = c.recorder
	}
	inner, err := core.OpenSystem(coreOpts)
	if err != nil {
		return nil, err
	}
	s := &System{inner: inner, recorder: c.recorder, reg: newRegistry()}
	if setup != nil {
		if err := setup(s); err != nil {
			_ = inner.Close()
			return nil, err
		}
	}
	if err := inner.FinishRecovery(); err != nil {
		_ = inner.Close()
		return nil, err
	}
	if bases := inner.RecoveredBases(); len(bases) > 0 {
		s.bases = histories.StateMap(bases)
	}
	return s, nil
}

// Close stops the background checkpointer (if any) and flushes and closes
// the commit log (no-op on a volatile System).  Call it after every
// transaction has completed; commits issued after Close fail rather than
// silently losing durability.
func (s *System) Close() error { return s.inner.Close() }

// CheckpointStats reports checkpoint counters: successful and failed
// attempts, the latest checkpoint's cut timestamp and age, bytes appended
// since it, and the cumulative log bytes and segments truncation reclaimed.
type CheckpointStats = core.CheckpointStats

// Checkpoint takes a checkpoint now — committed object states plus
// surviving prepared-undecided branches, published atomically — and
// truncates the log segments it covers.  Errors on a volatile System.
// Checkpointing overlaps running transactions: it reads lock-free committed
// snapshots and never touches the lock manager; a write failure (a full
// disk, say) poisons only the attempt and the engine keeps running
// log-only.
func (s *System) Checkpoint() error { return s.inner.Checkpoint() }

// CheckpointStats returns the checkpoint counters (zero on a volatile
// System).
func (s *System) CheckpointStats() CheckpointStats { return s.inner.CheckpointStats() }

// OpenCluster is NewCluster with durable per-shard commit logs under
// dir/shard<i> and a coordinator decision log under dir/coord.  The setup
// callback registers objects exactly as Open's does; recovery then
// resolves prepared-but-undecided two-phase-commit branches from the
// decision log (a logged commit decision commits them at the decided
// timestamp; no record means presumed abort) and replays all committed
// transactions — cross-shard ones merged across shard logs — in one global
// timestamp order.  The shard count is pinned by the log directory: reopen
// with a different count and OpenCluster refuses, since placement hashes
// names modulo the count.
func OpenCluster(dir string, shards int, setup func(*Cluster) error, opts ...Option) (*Cluster, error) {
	var c config
	for _, o := range opts {
		o(&c)
	}
	copts := cluster.Options{
		Shards:            shards,
		LockWait:          c.lockWait,
		DeadlockDetection: c.deadlockDetection,
		CommitTimeout:     c.commitTimeout,
		Durability:        c.durabilityOf(dir),
	}
	if c.recorder != nil {
		copts.Sink = c.recorder
	}
	inner, err := cluster.New(copts)
	if err != nil {
		return nil, err
	}
	cl := &Cluster{inner: inner, recorder: c.recorder, reg: newRegistry()}
	if setup != nil {
		if err := setup(cl); err != nil {
			_ = inner.Close()
			return nil, err
		}
	}
	if err := inner.FinishRecovery(); err != nil {
		_ = inner.Close()
		return nil, err
	}
	if bases := inner.RecoveredBases(); len(bases) > 0 {
		cl.bases = histories.StateMap(bases)
	}
	return cl, nil
}

// Close closes every shard's commit log and the coordinator decision log
// (no-op on a volatile Cluster).
func (c *Cluster) Close() error { return c.inner.Close() }

// Checkpoint takes a checkpoint on every shard and truncates each shard
// log's covered segments.  Errors on a volatile Cluster; a failing shard
// does not stop the others.
func (c *Cluster) Checkpoint() error { return c.inner.Checkpoint() }

// CheckpointStats sums the shards' checkpoint counters (LastAge reports
// the shard with the oldest last checkpoint).
func (c *Cluster) CheckpointStats() CheckpointStats { return c.inner.CheckpointStats() }
