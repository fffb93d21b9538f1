package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"hybridcc/internal/histories"
	"hybridcc/internal/spec"
	"hybridcc/internal/tstamp"
)

// This file is the client half of the networked cluster: a System whose
// objects live in another process.  A remote System keeps the whole public
// surface — Begin/Branch/ReadCall/Stats, the typed wrappers, the recorder
// feeding Verify — but routes every operation through a RemoteShard
// instead of the local lock manager.  Locks, intention lists, the WAL, and
// the clock all live on the serving shard; the local Object structs exist
// only so registration, scheme introspection, and event recording keep
// working unchanged on the client.
//
// Event recording is client-side: the dialed process records
// invoke/respond events when an RPC is granted and commit/abort events
// when the outcome is learned, so a shared Recorder sees one global
// history across every shard it dialed and Verify proves distributed
// atomicity without collecting logs from the servers.

// RemoteShard is the wire seam a remote System drives.  One implementation
// exists: netproto.ShardClient.  Every method is an RPC to the shard
// process that owns the objects; errors are the transport's (mapped onto
// the core sentinels where the server reported one).
type RemoteShard interface {
	// Register creates (or idempotently re-opens) an object on the shard.
	// typeName names a built-in specification (baseline.DescriptorFor);
	// scheme "" means the shard's default.  Inside a dialed cluster's setup
	// the registration is queued for the shard's one batch, and nil means
	// only that the local checks passed.
	Register(name, typeName, scheme string) error
	// SetScheme switches the named object's policy on the shard.
	SetScheme(name, scheme string) error

	// Call executes one update-transaction operation.
	Call(ctx context.Context, tx histories.TxID, obj histories.ObjID, inv spec.Invocation) (string, error)
	// WriteBehind sends an operation whose response is constant
	// (spec.ConstantSpec) without waiting for its reply.  An error the
	// reply carries fails the transaction's next call, or its commit,
	// which then aborts the branch.
	WriteBehind(ctx context.Context, tx histories.TxID, obj histories.ObjID, inv spec.Invocation) error
	// Commit commits a single-shard transaction on the shard, returning the
	// shard-chosen timestamp.  A transport failure after the request may
	// have reached the shard yields ErrOutcomeUnknown.
	Commit(ctx context.Context, tx histories.TxID) (histories.Timestamp, error)
	// Abort aborts the transaction on the shard.
	Abort(ctx context.Context, tx histories.TxID) error
	// StampParticipants records, client-side, the site count the next
	// Prepare for tx carries (the server stamps it into the commit record
	// for torn-leg detection).
	StampParticipants(tx histories.TxID, n int)

	// ReadBegin opens a read-only branch on the shard, pinning compaction,
	// and returns the shard clock's current bound for snapshot-timestamp
	// election.
	ReadBegin(ctx context.Context, tx histories.TxID) (histories.Timestamp, error)
	// ReadActivate fixes the branch's snapshot timestamp.
	ReadActivate(ctx context.Context, tx histories.TxID, ts histories.Timestamp) error
	// ReadCall executes one read-only operation at the branch's timestamp.
	ReadCall(ctx context.Context, tx histories.TxID, obj histories.ObjID, inv spec.Invocation) (string, error)
	// ReadComplete finishes the branch (commit or abort), releasing its pin.
	ReadComplete(ctx context.Context, tx histories.TxID, commit bool) error

	// Stats fetches the shard's counters.
	Stats(ctx context.Context) (StatsSnapshot, error)
}

// NewRemoteSystem returns a System whose operations execute on r.  The
// local System holds no data: objects registered on it are mirrored to the
// shard and kept as stubs for introspection and event recording.  Options
// matter only for Sink (the recorder) — lock waits and durability are the
// serving shard's business.
func NewRemoteSystem(r RemoteShard, opts Options) *System {
	return &System{opts: opts, clock: tstamp.NewSource(), remote: r}
}

// remoteStatsTimeout bounds the Stats RPC (Stats has no ctx parameter).
const remoteStatsTimeout = 5 * time.Second

// remoteRegister mirrors a new object onto the serving shard before the
// local stub is built.
func (s *System) remoteRegister(name string, sp spec.Spec, initial string) error {
	return s.remote.Register(name, sp.Name(), initial)
}

// remoteCall executes one operation of an update transaction on the shard;
// one with a constant response is sent write-behind and answered at once.
func (o *Object) remoteCall(t *Tx, inv spec.Invocation) (string, error) {
	if err := t.enter(); err != nil {
		return "", err
	}
	defer t.exit()
	s := o.sys
	// Counted here, not at finish: a stub's completions never read t.calls.
	s.stats.Calls.Add(1)
	ctx := t.ctx
	if err := ctx.Err(); err != nil {
		return "", fmt.Errorf("hybridcc: %s on %s: %w", inv, o.name, err)
	}
	res, constant := "", false
	if cs, ok := o.sp.(spec.ConstantSpec); ok {
		res, constant = cs.ConstantResponse(inv)
	}
	var err error
	if constant {
		err = s.remote.WriteBehind(ctx, t.ID(), o.name, inv)
	} else {
		res, err = s.remote.Call(ctx, t.ID(), o.name, inv)
	}
	if err != nil {
		return "", err
	}
	// The stub keeps no lock record to tell a first grant by, so it looks —
	// under mu: a decision or an Abort may overtake this call.
	t.mu.Lock()
	if !slices.Contains(t.objs, o) {
		t.objs = append(t.objs, o)
	}
	t.mu.Unlock()
	o.stats.granted.Add(1)
	id := t.ID()
	s.recordDirect(histories.InvokeEvent(id, o.name, inv))
	s.recordDirect(histories.RespondEvent(id, o.name, res))
	return res, nil
}

// recordRemoteCompletion emits the completion events of a remote update
// transaction: one commit (at ts) or abort event per touched object.
func (t *Tx) recordRemoteCompletion(commit bool, ts histories.Timestamp) {
	s := t.sys
	if s.opts.Sink == nil {
		return
	}
	id := t.ID()
	t.mu.Lock()
	objs := t.touchedObjects()
	t.mu.Unlock()
	for _, o := range objs {
		if commit {
			s.recordDirect(histories.CommitEvent(id, o.name, ts))
		} else {
			s.recordDirect(histories.AbortEvent(id, o.name))
		}
	}
}

// remoteCommit commits a single-shard remote transaction: the shard runs
// the whole local commit (timestamp draw, WAL append, merge) and reports
// the timestamp.  An unknowable outcome — the connection died with the
// request possibly delivered — surfaces as ErrOutcomeUnknown with NO
// completion events: the transaction stays incomplete in the recorded
// history (verify-safe either way) rather than recorded with the wrong
// fate.
func (t *Tx) remoteCommit() error {
	if err := t.startCommit(false); err != nil {
		return err
	}
	ts, err := t.sys.remote.Commit(t.ctx, t.ID())
	t.remoteDone(err == nil, ts, !errors.Is(err, ErrOutcomeUnknown))
	return err
}

// remoteAbort aborts the transaction on the shard, best-effort: the local
// handle is dead either way, and a lost abort resolves server-side when
// the connection drops (non-prepared) or by presumed abort (prepared).
func (t *Tx) remoteAbort() error {
	err := t.remoteDecided(false, 0)
	if err == nil {
		_ = t.sys.remote.Abort(context.Background(), t.ID())
	}
	return err
}

// remoteDecided completes an active remote branch's handle with an
// atomic-commitment decision — commit at ts, or abort — and sends nothing:
// the commit protocol transport (netproto.ShardClient) delivers, and
// redelivers, the decision itself.  It never fails with anything but
// ErrTxDone, which the cluster's re-apply loop treats as already-applied.
func (t *Tx) remoteDecided(commit bool, ts histories.Timestamp) error {
	t.mu.Lock()
	active := t.status == txActive
	if active {
		t.status = txCommitting
	}
	t.mu.Unlock()
	if !active {
		return ErrTxDone
	}
	t.remoteDone(commit, ts, true)
	return nil
}

// remoteDone moves a remote transaction out of txCommitting — committed at
// ts, or aborted — and, when record is set, records its completion events.
func (t *Tx) remoteDone(commit bool, ts histories.Timestamp, record bool) {
	t.mu.Lock()
	if commit {
		t.ts, t.status = ts, txCommitted
	} else {
		t.status = txAborted
	}
	t.mu.Unlock()
	if commit {
		t.sys.clock.Observe(ts)
		t.sys.stats.Committed.Add(1)
	} else {
		t.sys.stats.Aborted.Add(1)
	}
	if record {
		t.recordRemoteCompletion(commit, ts)
	}
}
