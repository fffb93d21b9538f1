package cluster

import (
	"fmt"
	"time"

	"hybridcc/internal/commitproto"
	"hybridcc/internal/core"
	"hybridcc/internal/tstamp"
)

// RemoteConn is one dialed shard: the operation path a remote core.System
// drives (calls, fast-path commits, snapshot reads) plus the commit
// protocol's transport view, both multiplexed over the same connections.
// internal/netproto's ShardClient is the production implementation; tests
// substitute in-process fakes.
type RemoteConn interface {
	core.RemoteShard
	// Transport returns the commitproto view of the shard, used by the
	// cluster coordinator's two-phase commit.
	Transport() commitproto.Transport
	// Close releases the connection pool.
	Close() error
}

// RemoteOptions configures NewRemote.
type RemoteOptions struct {
	// CommitTimeout bounds each commit-protocol round trip (zero means
	// DefaultCommitTimeout).
	CommitTimeout time.Duration
	// Sink observes this client's transaction events across all shards,
	// producing one globally well-formed history for verification.  The
	// events are recorded client-side as RPCs are granted, so the sink
	// sees exactly this client's transactions.
	Sink core.SeqSink
	// IDPrefix is folded into every transaction identifier ("T<prefix><n>",
	// "R<prefix><n>").  Shard servers key branches, WAL records, and
	// outcomes by identifier, so two clients of the same shard MUST use
	// distinct prefixes or their transactions collide.
	IDPrefix string
	// Ledger, when set, records each commit decision before any shard is
	// told to commit, so a shard that crashed prepared is fed its decision
	// on reconnect (netproto's handshake).  It discharges a decision once
	// every shard has acknowledged it, which the connections report to
	// Ledger.Ack as they read the acknowledgements: a shard server acks
	// once the commit record is durable.  Close closes it.
	Ledger *commitproto.Ledger
}

// NewRemote assembles a Cluster over dialed shards: same API, same
// placement function, same commit protocol — but every branch operation
// is an RPC and the participants live in other processes.  conns[i] must
// be connected to the server for shard i of a len(conns)-shard cluster.
//
// The coordinator draws commit timestamps from the clock congruent to
// len(conns) modulo len(conns)+1 — the same class an in-process cluster's
// coordinator uses, disjoint from every shard's fast-path class, so the
// global timestamp discipline (precedes ⊆ TS) carries over unchanged.
func NewRemote(conns []RemoteConn, opts RemoteOptions) (*Cluster, error) {
	n := len(conns)
	if n < 1 {
		return nil, fmt.Errorf("cluster: need at least 1 shard connection, got %d", n)
	}
	if opts.CommitTimeout <= 0 {
		opts.CommitTimeout = DefaultCommitTimeout
	}
	c := &Cluster{
		shards:   make([]*core.System, n),
		index:    make(map[*core.System]int, n),
		names:    make([]string, n),
		remotes:  conns,
		idPrefix: opts.IDPrefix,
		ledger:   opts.Ledger,
	}
	for i, conn := range conns {
		sys := core.NewRemoteSystem(conn, core.Options{Sink: opts.Sink})
		c.shards[i] = sys
		c.index[sys] = i
		c.names[i] = fmt.Sprintf("shard%d", i)
	}
	c.coordClock = tstamp.NewNodeClock(n, n+1)
	c.coord = commitproto.NewCoordinator(c.coordClock, opts.CommitTimeout)
	if l := opts.Ledger; l != nil {
		c.coord.SetDecisionLog(l.Record)
	}
	return c, nil
}

// Remote reports whether this cluster runs over dialed shard connections.
func (c *Cluster) Remote() bool { return c.remotes != nil }
