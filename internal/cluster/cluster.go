// Package cluster implements a sharded transaction engine over
// independent core Systems: objects are partitioned across shards by
// hashed name, each shard runs the paper's LOCK algorithm with its own
// lock manager, clock, and compiled conflict tables, and cross-shard
// transactions commit through the internal/commitproto two-phase commit
// coordinator so every shard serializes them at the same piggybacked
// timestamp — Section 2's distributed setting ("algorithms that piggyback
// timestamp information on the messages of a commit protocol"), realized
// in-process.
//
// Timestamp discipline.  With S shards, shard i draws its fast-path
// (single-shard) commit timestamps from a tstamp.NodeClock congruent to i
// modulo S+1; the coordinator — which also times cluster-wide snapshots —
// draws from the clock congruent to S.  Timestamps are therefore globally
// unique without global coordination, and the Lamport Observe rules keep
// every shard clock ahead of every timestamp applied at that shard, so
// precedes ⊆ TS holds across the whole cluster: a transaction that runs
// at an object after another committed there always receives a later
// timestamp, whichever clock mints it.  Feeding one SeqSink to every
// shard therefore yields one globally well-formed history, on which the
// verify package proves global (not merely per-shard) hybrid atomicity.
package cluster

import (
	"errors"
	"fmt"
	"hash/fnv"
	"path/filepath"
	"sync/atomic"
	"time"

	"hybridcc/internal/commitproto"
	"hybridcc/internal/core"
	"hybridcc/internal/histories"
	"hybridcc/internal/tstamp"
	"hybridcc/internal/wal"
)

// ErrCommitAborted reports a cross-shard commit vetoed or abandoned by the
// atomic commitment protocol.  The transaction aborted on every shard;
// retrying it is safe.
var ErrCommitAborted = errors.New("cluster: atomic commitment aborted")

// DefaultCommitTimeout bounds each 2PC message round trip.
const DefaultCommitTimeout = 5 * time.Second

// Options configures a Cluster.
type Options struct {
	// Shards is the number of independent shard Systems (≥ 1).
	Shards int
	// LockWait, DeadlockDetection, and Sink configure every shard exactly
	// as the corresponding core.Options fields do.  One Sink observes all
	// shards, producing the global history.
	// DeadlockDetection is per shard: each shard maintains its own
	// waits-for graph, so a cycle whose edges span shards is not
	// detected — it resolves through the LockWait timeout (and the
	// retry/backoff above it) instead of a prompt ErrDeadlock.
	LockWait          time.Duration
	DeadlockDetection bool
	Sink              core.SeqSink
	// CommitTimeout bounds each message round trip of the commit
	// protocol.  Zero means DefaultCommitTimeout.
	CommitTimeout time.Duration
	// WrapTransport, when set, wraps each cross-shard commit's per-shard
	// direct transport — the hook the deterministic fault-injection
	// controller (commitproto.FaultTransport) plugs its views into.
	WrapTransport func(shard int, tr commitproto.Transport) commitproto.Transport
	// Durability gives every shard a write-ahead commit log under
	// Dir/shard<i> and the coordinator a commitproto.Ledger under Dir/coord
	// (Sync and SegmentSize apply to all of them).  Reopening an existing
	// directory recovers: the caller must register every logged object and
	// then call FinishRecovery before beginning transactions.  The shard
	// count is pinned by the directory layout.  Only FinishRecovery
	// discharges decisions: a direct participant's Commit reports no failed
	// durable apply, so a running cluster's acks prove nothing durable.
	Durability *core.Durability
}

// Cluster partitions objects across shard Systems and runs distributed
// transactions over them.
type Cluster struct {
	shards     []*core.System
	clocks     []*tstamp.NodeClock
	coordClock *tstamp.NodeClock
	coord      *commitproto.Coordinator
	index      map[*core.System]int
	// names holds the protocol site name of every shard ("shard<i>"),
	// precomputed once here so the commit hot path never formats them.
	names []string
	txSeq atomic.Uint64
	stats stats

	// remotes, when non-nil, holds one dialed connection per shard: the
	// shard Systems are remote stubs and cross-shard commits run over the
	// connections' protocol transports (NewRemote).  idPrefix namespaces
	// this client's transaction identifiers on the shared shard servers.
	// wrapTransport optionally wraps each in-process commit transport
	// (Options.WrapTransport).
	remotes       []RemoteConn
	idPrefix      string
	wrapTransport func(shard int, tr commitproto.Transport) commitproto.Transport

	// ledger is the coordinator's decision ledger, nil on a volatile
	// in-process cluster; Close closes it.  logSynced records whether the
	// shard logs fsync each commit — the missing-leg accounting in
	// FinishRecovery is allowed a stronger truncation argument when they
	// do.
	ledger    *commitproto.Ledger
	logSynced bool
}

// New creates a cluster of opts.Shards independent shards.
func New(opts Options) (*Cluster, error) {
	if opts.Shards < 1 {
		return nil, fmt.Errorf("cluster: need at least 1 shard, got %d", opts.Shards)
	}
	if opts.CommitTimeout <= 0 {
		opts.CommitTimeout = DefaultCommitTimeout
	}
	if d := opts.Durability; d != nil {
		if err := checkShardLayout(d.Dir, opts.Shards); err != nil {
			return nil, err
		}
	}
	c := &Cluster{
		shards:        make([]*core.System, opts.Shards),
		clocks:        make([]*tstamp.NodeClock, opts.Shards),
		index:         make(map[*core.System]int, opts.Shards),
		names:         make([]string, opts.Shards),
		wrapTransport: opts.WrapTransport,
	}
	for i := range c.shards {
		clock := tstamp.NewNodeClock(i, opts.Shards+1)
		c.names[i] = fmt.Sprintf("shard%d", i)
		sysOpts := core.Options{
			LockWait:          opts.LockWait,
			DeadlockDetection: opts.DeadlockDetection,
			Sink:              opts.Sink,
			Clock:             clock,
			// Cross-shard commits land via CommitAt with the
			// coordinator's timestamp; shards must account for them.
			ExternalTimestamps: true,
		}
		if d := opts.Durability; d != nil {
			sysOpts.Durability = &core.Durability{
				Dir:                filepath.Join(d.Dir, c.names[i]),
				Sync:               d.Sync,
				SegmentSize:        d.SegmentSize,
				CheckpointBytes:    d.CheckpointBytes,
				CheckpointInterval: d.CheckpointInterval,
			}
		}
		sys, err := core.OpenSystem(sysOpts)
		if err != nil {
			c.closeOpened()
			return nil, err
		}
		c.shards[i], c.clocks[i] = sys, clock
		c.index[sys] = i
	}
	c.coordClock = tstamp.NewNodeClock(opts.Shards, opts.Shards+1)
	c.coord = commitproto.NewCoordinator(c.coordClock, opts.CommitTimeout)
	if d := opts.Durability; d != nil {
		l, err := commitproto.OpenLedger(filepath.Join(d.Dir, coordDirName), "", wal.Options{Sync: d.Sync, SegmentSize: d.SegmentSize})
		if err != nil {
			c.closeOpened()
			return nil, err
		}
		c.ledger, c.logSynced = l, d.Sync
		// The coordinator clock must stay ahead of every decision it ever
		// issued, or a post-recovery round could remint a timestamp.
		for _, ts := range l.Decisions() {
			c.coordClock.Observe(histories.Timestamp(ts))
		}
		c.coord.SetDecisionLog(l.Record)
	}
	return c, nil
}

// closeOpened releases the shard Systems a failed New had opened so far
// (their logs hold OS file handles), so a constructor error does not leak
// descriptors.
func (c *Cluster) closeOpened() {
	for _, sys := range c.shards {
		if sys != nil {
			_ = sys.Close()
		}
	}
}

// NumShards returns the shard count.
func (c *Cluster) NumShards() int { return len(c.shards) }

// Shard returns shard i's System, for registering objects on it.
func (c *Cluster) Shard(i int) *core.System { return c.shards[i] }

// ShardFor returns the shard index that owns the object name (FNV-1a hash
// of the name modulo the shard count), the cluster's placement function.
func (c *Cluster) ShardFor(name string) int {
	h := fnv.New32a()
	_, _ = h.Write([]byte(name))
	return int(h.Sum32() % uint32(len(c.shards)))
}

// SystemFor returns the System that owns the object name.
func (c *Cluster) SystemFor(name string) *core.System {
	return c.shards[c.ShardFor(name)]
}

// shardIndex returns the index of sys, or -1 when sys is not a shard of
// this cluster.
func (c *Cluster) shardIndex(sys *core.System) int {
	if i, ok := c.index[sys]; ok {
		return i
	}
	return -1
}

// stats aggregates cluster-level counters; shard-level counters live in
// each shard's core.Stats.
type stats struct {
	begun            atomic.Int64
	committed        atomic.Int64
	aborted          atomic.Int64
	fastPathCommits  atomic.Int64
	crossShardCommit atomic.Int64
	protocolAborts   atomic.Int64
}

// StatsSnapshot reports cluster-wide counters: the distributed-transaction
// ledger plus per-shard and summed core counters.  Shard Begun counts
// branches, not transactions — a cross-shard transaction begins once at
// the cluster and once per touched shard.
type StatsSnapshot struct {
	// Distributed transactions (DTx and DReadTx) at the cluster level.
	Begun     int64
	Committed int64
	Aborted   int64
	// FastPathCommits committed on one shard without the commit protocol;
	// CrossShardCommits ran 2PC; ProtocolAborts were aborted by it.
	FastPathCommits   int64
	CrossShardCommits int64
	ProtocolAborts    int64
	// Shards holds each shard's counters; Total sums them.
	Shards []core.StatsSnapshot
	Total  core.StatsSnapshot
}

// Stats returns a snapshot of cluster-wide counters.
func (c *Cluster) Stats() StatsSnapshot {
	s := StatsSnapshot{
		Begun:             c.stats.begun.Load(),
		Committed:         c.stats.committed.Load(),
		Aborted:           c.stats.aborted.Load(),
		FastPathCommits:   c.stats.fastPathCommits.Load(),
		CrossShardCommits: c.stats.crossShardCommit.Load(),
		ProtocolAborts:    c.stats.protocolAborts.Load(),
		Shards:            make([]core.StatsSnapshot, len(c.shards)),
	}
	for i, sys := range c.shards {
		sh := sys.Stats()
		s.Shards[i] = sh
		s.Total.Begun += sh.Begun
		s.Total.Committed += sh.Committed
		s.Total.Aborted += sh.Aborted
		s.Total.Calls += sh.Calls
		s.Total.Waits += sh.Waits
		s.Total.Timeouts += sh.Timeouts
		s.Total.WaitTime += sh.WaitTime
		s.Total.Wakeups += sh.Wakeups
		s.Total.SpuriousWakeups += sh.SpuriousWakeups
		s.Total.Recovered += sh.Recovered
		s.Total.SchemeSwitches += sh.SchemeSwitches
		s.Total.LogAppends += sh.LogAppends
		s.Total.LogFsyncs += sh.LogFsyncs
		// A shard whose counters could not be fetched contributed only
		// client-side stub numbers above; taint the total so the sum is
		// not mistaken for complete.
		if sh.StatsErr != "" && s.Total.StatsErr == "" {
			s.Total.StatsErr = fmt.Sprintf("shard %d: %s", i, sh.StatsErr)
		}
	}
	return s
}

// String summarizes the snapshot.
func (s StatsSnapshot) String() string {
	return fmt.Sprintf("dtx: begun=%d committed=%d (fastpath=%d cross-shard=%d) aborted=%d protocol-aborts=%d; shards: %s",
		s.Begun, s.Committed, s.FastPathCommits, s.CrossShardCommits, s.Aborted, s.ProtocolAborts, s.Total)
}
