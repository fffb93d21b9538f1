package hybridcc

import (
	"context"

	"hybridcc/internal/cluster"
	"hybridcc/internal/histories"
)

// Cluster is a sharded System: objects are partitioned across independent
// shards — each with its own lock manager, logical clock, and compiled
// conflict tables — by hashed object name, and transactions span shards
// transparently.  A transaction that touches one shard commits locally
// with no coordination; one that touches several commits through a
// two-phase commit protocol that piggybacks the commit timestamp on its
// messages (Section 2 of the paper), so every shard serializes it at the
// same position.  Typed objects, Atomically, and Snapshot work exactly as
// on a System: the same Account/Queue/custom-ADT wrappers route each
// operation to the owning shard through the Txn interface.
//
// A Cluster trades per-transaction commit cost for parallelism: the
// single-shard fast path scales near-linearly with shards (disjoint lock
// managers, disjoint clocks), while cross-shard transactions pay the
// protocol round trips — the benchmark's wire-single and wire-cross
// workloads quantify both.
type Cluster struct {
	inner    *cluster.Cluster
	recorder *Recorder
	reg      *registry
	// bases holds the per-object states recovery seeded from per-shard
	// checkpoints (nil when every shard recovered from replay alone):
	// Verify replays the recorded global history from these.
	bases histories.StateMap
}

// DTx is a distributed transaction on a Cluster: one branch per touched
// shard, opened lazily, all committing at one timestamp.  It implements
// Txn, so it is accepted everywhere a *Tx is.
type DTx = cluster.DTx

// DReadTx is a cluster-wide read-only snapshot serializing every shard at
// one start-chosen timestamp.  It implements ReadTxn.
type DReadTx = cluster.DReadTx

// ErrCommitAborted reports a cross-shard commit aborted by the atomic
// commitment protocol; the transaction rolled back on every shard, and
// Atomically retries it automatically.
var ErrCommitAborted = cluster.ErrCommitAborted

// ClusterStats aggregates cluster-wide counters: the distributed
// transaction ledger plus per-shard core counters.
type ClusterStats = cluster.StatsSnapshot

// NewCluster creates a cluster of shards independent shard Systems.  The
// usual Options apply to every shard; one recorder (WithRecorder) observes
// all of them, so Verify checks atomicity of the global history.
// WithDeadlockDetection is per shard: a waits-for cycle whose edges span
// shards is not detected promptly — it resolves through the lock-wait
// timeout and Atomically's retry instead of a fast ErrDeadlock.
func NewCluster(shards int, opts ...Option) (*Cluster, error) {
	var c config
	for _, o := range opts {
		o(&c)
	}
	copts := cluster.Options{
		Shards:            shards,
		LockWait:          c.lockWait,
		DeadlockDetection: c.deadlockDetection,
		CommitTimeout:     c.commitTimeout,
	}
	if c.recorder != nil {
		copts.Sink = c.recorder
	}
	inner, err := cluster.New(copts)
	if err != nil {
		return nil, err
	}
	return &Cluster{inner: inner, recorder: c.recorder, reg: newRegistry()}, nil
}

// NumShards returns the shard count.
func (c *Cluster) NumShards() int { return c.inner.NumShards() }

// ShardFor returns the shard index that owns the object name — the
// cluster's placement function (FNV-1a hash modulo shard count).
func (c *Cluster) ShardFor(name string) int { return c.inner.ShardFor(name) }

// Begin starts a distributed transaction.
func (c *Cluster) Begin() *DTx { return c.inner.Begin() }

// BeginCtx starts a distributed transaction bound to ctx: cancelling ctx
// unblocks lock waits on every branch and — until the commit decision is
// reached — cancels an in-flight commit protocol round.
func (c *Cluster) BeginCtx(ctx context.Context) *DTx { return c.inner.BeginCtx(ctx) }

// BeginReadOnly starts a cluster-wide read-only snapshot serializing at
// the current logical time of the whole cluster.
func (c *Cluster) BeginReadOnly() *DReadTx { return c.inner.BeginReadOnly() }

// BeginReadOnlyCtx starts a cluster-wide read-only snapshot bound to ctx.
func (c *Cluster) BeginReadOnlyCtx(ctx context.Context) *DReadTx {
	return c.inner.BeginReadOnlyCtx(ctx)
}

// Atomically runs fn inside a distributed transaction, committing on
// success (via the single-shard fast path or two-phase commit, as needed)
// and aborting on error.  Lock-wait timeouts, detected deadlocks, and
// protocol aborts are retried exactly as System.Atomically retries.
func (c *Cluster) Atomically(fn func(tx *DTx) error) error {
	return c.AtomicallyCtx(context.Background(), fn)
}

// AtomicallyCtx is Atomically bound to ctx.  A commit whose decision has
// been reached is never interrupted: cancellation mid-protocol aborts the
// round only while votes are still being collected.
func (c *Cluster) AtomicallyCtx(ctx context.Context, fn func(tx *DTx) error) error {
	return atomicallyLoop(ctx, func() error {
		tx := c.BeginCtx(ctx)
		// As in System.AtomicallyCtx: the branches' locks go on every way
		// out of fn, a panic included; after Commit the Abort is a refused
		// no-op.
		defer func() { _ = tx.Abort() }()
		if err := fn(tx); err != nil {
			return err
		}
		return tx.Commit()
	})
}

// Snapshot runs fn inside a cluster-wide read-only snapshot and commits
// it.  Readers take no locks on any shard; a timeout (a writer lingering
// in its commit window) is returned as ErrTimeout.
func (c *Cluster) Snapshot(fn func(r *DReadTx) error) error {
	return c.SnapshotCtx(context.Background(), fn)
}

// SnapshotCtx is Snapshot bound to ctx.
func (c *Cluster) SnapshotCtx(ctx context.Context, fn func(r *DReadTx) error) error {
	r := c.BeginReadOnlyCtx(ctx)
	// The snapshot pins the compaction horizon on every shard, so it must
	// finish on every way out of fn — an error, and a panic unwinding
	// through here.  After Commit the Abort is a refused no-op.
	defer func() { _ = r.Abort() }()
	if err := fn(r); err != nil {
		return err
	}
	return r.Commit()
}

// Stats returns cluster-wide counters, aggregated across every shard.
func (c *Cluster) Stats() ClusterStats { return c.inner.Stats() }

// SetScheme switches the named object's concurrency-control scheme at
// runtime on whichever shard owns it (see Object.SetScheme).  On an
// in-process cluster the switch lasts for this process: OpenCluster
// reopens every object at the scheme its setup registers it under.  A
// dialed shard server logs the switch in its catalog and restores it when
// it restarts.
func (c *Cluster) SetScheme(name string, scheme Scheme) error {
	return c.inner.SystemFor(name).SetObjectScheme(name, string(scheme))
}

// Verify checks the recorded global history (requires WithRecorder):
// one interleaved history covering every shard, proven well-formed and
// hybrid atomic against the specifications of every object in the
// cluster.  Because cross-shard transactions appear with one identifier
// and one timestamp at objects on different shards, the check proves
// global atomicity — a torn 2PC would fail it — not merely per-shard
// atomicity.
func (c *Cluster) Verify() error { return verifyRecorded(c.recorder, c.reg, c.bases) }

// NewCustom registers an object on the shard that owns name, behaving as
// System.NewCustom in every other respect.  Names are unique
// cluster-wide.  Inside a dialed cluster's setup the shard's verdict on the
// registration arrives with Dial's return (see Dial).
func (c *Cluster) NewCustom(name string, sp Spec, opts ...ObjectOption) (*Object, error) {
	return newCustomOn(c.inner.SystemFor(name), c.reg, name, sp, opts)
}

// The typed constructors mirror System's, placing each object on the
// shard that owns its name.

// NewAccount creates an account object on its owning shard.
func (c *Cluster) NewAccount(name string, opts ...ObjectOption) (*Account, error) {
	return newBuiltin(c, name, "Account", wrapAccount, opts)
}

// NewQueue creates a queue object on its owning shard.
func (c *Cluster) NewQueue(name string, opts ...ObjectOption) (*Queue, error) {
	return newBuiltin(c, name, "Queue", wrapQueue, opts)
}

// NewSemiqueue creates a semiqueue object on its owning shard.
func (c *Cluster) NewSemiqueue(name string, opts ...ObjectOption) (*Semiqueue, error) {
	return newBuiltin(c, name, "Semiqueue", wrapSemiqueue, opts)
}

// NewFile creates a file object on its owning shard.
func (c *Cluster) NewFile(name string, opts ...ObjectOption) (*File, error) {
	return newBuiltin(c, name, "File", wrapFile, opts)
}

// NewCounter creates a counter object on its owning shard.
func (c *Cluster) NewCounter(name string, opts ...ObjectOption) (*Counter, error) {
	return newBuiltin(c, name, "Counter", wrapCounter, opts)
}

// NewSet creates a set object on its owning shard.
func (c *Cluster) NewSet(name string, opts ...ObjectOption) (*Set, error) {
	return newBuiltin(c, name, "Set", wrapSet, opts)
}

// NewDirectory creates a directory object on its owning shard.
func (c *Cluster) NewDirectory(name string, opts ...ObjectOption) (*Directory, error) {
	return newBuiltin(c, name, "Directory", wrapDirectory, opts)
}
