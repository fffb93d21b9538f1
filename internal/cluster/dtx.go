package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"hybridcc/internal/commitproto"
	"hybridcc/internal/core"
	"hybridcc/internal/histories"
)

// DTx is a distributed transaction: one branch per touched shard, opened
// lazily as operations route to objects, all carrying the same transaction
// identifier so a shared recorder sees one global transaction.  Like a
// plain transaction it is single-threaded.  Commit takes the single-shard
// fast path when only one branch opened, and otherwise runs two-phase
// commit so every shard serializes the transaction at the same timestamp.
type DTx struct {
	c   *Cluster
	id  histories.TxID
	ctx context.Context

	mu       sync.Mutex
	done     bool
	branches map[*core.System]*core.Tx
	order    []branch
}

// branch pairs a shard branch with its shard index (for protocol site
// names and deterministic iteration in creation order).
type branch struct {
	shard int
	tx    *core.Tx
}

// Begin starts a distributed transaction.
func (c *Cluster) Begin() *DTx { return c.BeginCtx(context.Background()) }

// BeginCtx starts a distributed transaction bound to ctx: cancellation
// unblocks lock waits on every branch and — until the commit decision is
// reached — cancels an in-flight commit protocol round.
func (c *Cluster) BeginCtx(ctx context.Context) *DTx {
	if ctx == nil {
		ctx = context.Background()
	}
	n := c.txSeq.Add(1)
	c.stats.begun.Add(1)
	return &DTx{
		c:        c,
		id:       histories.TxID(fmt.Sprintf("T%s%d", c.idPrefix, n)),
		ctx:      ctx,
		branches: make(map[*core.System]*core.Tx),
	}
}

// ID returns the transaction's cluster-wide identifier, shared by all of
// its shard branches.
func (t *DTx) ID() histories.TxID { return t.id }

// Context returns the context the transaction was started with.
func (t *DTx) Context() context.Context { return t.ctx }

// Branch implements core.Txn: it returns the branch on the shard that owns
// o, beginning it on first use.
func (t *DTx) Branch(o *core.Object) (*core.Tx, error) {
	sys := o.System()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return nil, core.ErrTxDone
	}
	if br, ok := t.branches[sys]; ok {
		return br, nil
	}
	shard := t.c.shardIndex(sys)
	if shard < 0 {
		return nil, fmt.Errorf("cluster: object %s is not on any shard of this cluster", o.Name())
	}
	br := sys.BeginBranch(t.ctx, t.id)
	t.branches[sys] = br
	t.order = append(t.order, branch{shard: shard, tx: br})
	return br, nil
}

// Shards reports how many shards the transaction has touched so far.
func (t *DTx) Shards() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.order)
}

// finish marks the transaction completed and returns its branches; the
// second return is false when it was already completed.
func (t *DTx) finish() ([]branch, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return nil, false
	}
	t.done = true
	return t.order, true
}

// Commit atomically commits the transaction on every touched shard.  A
// transaction that touched one shard commits locally — drawing its
// timestamp from that shard's clock, with no protocol round.  A
// cross-shard transaction runs two-phase commit: every branch votes with
// its timestamp lower bound, and the coordinator distributes one commit
// timestamp above all of them, so all shards serialize the transaction at
// the same position.  On ErrCommitAborted every branch has been rolled
// back; the caller may retry the whole transaction.
func (t *DTx) Commit() error {
	order, ok := t.finish()
	if !ok {
		return core.ErrTxDone
	}
	switch len(order) {
	case 0:
		// Read nothing, wrote nothing: committing is a no-op.
		t.c.stats.committed.Add(1)
		return nil
	case 1:
		if err := order[0].tx.Commit(); err != nil {
			// The branch did not commit (e.g. ErrTxBusy: a stray
			// goroutine still mid-call).  Abort it here — the DTx is
			// already completed, so the caller's Abort would be a no-op
			// and the branch's locks would leak forever.
			_ = order[0].tx.Abort()
			t.c.stats.aborted.Add(1)
			return err
		}
		t.c.stats.committed.Add(1)
		t.c.stats.fastPathCommits.Add(1)
		return nil
	}

	// In-process the protocol runs over the direct transport: participants
	// are plain method calls, with no per-commit lifecycle to tear down, so
	// the transports are trivially still deliverable when the decision
	// re-apply loop below runs.
	trs := make([]commitproto.Transport, len(order))
	for i, b := range order {
		// Stamp every leg's commit record with the full site count, so a
		// recovery merging this transaction across shard logs can tell a
		// complete merge from one missing a leg (cluster.FinishRecovery).
		b.tx.SetParticipants(len(order))
		if t.c.remotes != nil {
			// Dialed cluster: the protocol messages travel the shard
			// connections; the remote server holds the real branch.
			trs[i] = t.c.remotes[b.shard].Transport()
		} else {
			trs[i] = commitproto.NewDirect(t.c.names[b.shard], core.TxParticipant{Tx: b.tx})
		}
		if t.c.wrapTransport != nil {
			trs[i] = t.c.wrapTransport(b.shard, trs[i])
		}
	}
	dec, ts, err := t.c.coord.RunTransports(t.ctx, t.id, trs)

	// The protocol's message delivery is timeout-bounded; a branch that
	// missed the decision would stay prepared, holding locks the caller
	// can no longer release (the DTx is finished).  Re-apply the decision
	// locally: standard 2PC recovery — a participant that voted must
	// apply the decision when it learns it — and idempotent, since a
	// branch the message did reach is already completed (ErrTxDone).
	if dec == commitproto.Committed {
		for _, b := range order {
			if err := b.tx.CommitAt(ts); err != nil && !errors.Is(err, core.ErrTxDone) {
				// Unreachable through DTx's state machine: finish() ran
				// before the protocol, so no new call can enter, and a
				// call still in flight makes Prepare veto the round.  A
				// failure here would tear the transaction across shards.
				panic(fmt.Sprintf("cluster: branch of %s on %s cannot apply decision %d: %v",
					t.id, t.c.names[b.shard], ts, err))
			}
		}
		t.c.stats.committed.Add(1)
		t.c.stats.crossShardCommit.Add(1)
		return nil
	}
	for _, b := range order {
		_ = b.tx.AbortDecided()
	}
	t.c.stats.aborted.Add(1)
	t.c.stats.protocolAborts.Add(1)
	if err != nil {
		// Every protocol abort rolled all branches back, so all are
		// safely retryable: wrap ErrCommitAborted alongside the cause so
		// Atomically retries a transient unreachable-participant timeout
		// too — and a wrapped ctx error still stops the retry loop.
		return fmt.Errorf("cluster: commit of %s: %w (%w)", t.id, ErrCommitAborted, err)
	}
	return fmt.Errorf("%w: %s", ErrCommitAborted, t.id)
}

// Abort aborts the transaction on every touched shard, releasing its locks
// and discarding its intentions.  Aborting a completed transaction is a
// no-op error (ErrTxDone).
func (t *DTx) Abort() error {
	order, ok := t.finish()
	if !ok {
		return core.ErrTxDone
	}
	for _, b := range order {
		_ = b.tx.Abort()
	}
	t.c.stats.aborted.Add(1)
	return nil
}
