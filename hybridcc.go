// Package hybridcc is a transaction-processing library implementing hybrid
// concurrency control for abstract data types, after Herlihy & Weihl
// ("Hybrid Concurrency Control for Abstract Data Types", PODS 1988 / JCSS
// 43(1), 1991).
//
// Transactions are serializable in commit-timestamp order (hybrid
// atomicity).  Lock conflicts are derived from each data type's serial
// specification as the symmetric closure of a minimal dependency relation —
// strictly fewer conflicts than commutativity-based locking, and far fewer
// than read/write locking.  Concretely: concurrent transactions can enqueue
// on one FIFO queue, blind-write one file (the generalized Thomas Write
// Rule), and post interest while others credit and debit one account.
//
// Quick start:
//
//	sys := hybridcc.NewSystem()
//	acct, err := sys.NewAccount("checking")
//	if err != nil { ... }
//	err = sys.Atomically(func(tx *hybridcc.Tx) error {
//		return acct.Credit(tx, 100)
//	})
//
// Every typed object (Account, Queue, Semiqueue, File, Counter, Set,
// Directory) ships with its paper-derived conflict relation; the
// commutativity and read/write baselines of the paper's Section 7 are
// available through WithScheme for comparison, and remain correct because
// hybrid atomicity is upward compatible with dynamic atomicity.
//
// User-defined types are first-class: describe a serial specification as a
// Spec — optionally with an explicit dependency relation, or a finite
// operation universe from which one is derived mechanically — and register
// objects of it with System.NewCustom.  The seven built-in types are
// themselves constructed through that path.  See examples/customadt.
//
// NewCluster scales the same model out: objects partition across
// independent shards by hashed name, single-shard transactions commit
// locally, and cross-shard transactions commit through two-phase
// commitment with the timestamp piggybacked on the protocol messages —
// Section 2's distributed setting.  The typed objects and the
// Atomically/Snapshot idioms are unchanged; see the Cluster type.
package hybridcc

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"hybridcc/internal/backoff"
	"hybridcc/internal/core"
	"hybridcc/internal/histories"
	"hybridcc/internal/verify"
)

// Tx is a transaction handle.  A transaction must be used from one
// goroutine at a time; Commit and Abort complete it everywhere it executed
// operations.
type Tx = core.Tx

// Txn is the executor every object operation routes through: a plain *Tx,
// or a cluster *DTx whose Branch opens one transaction branch per touched
// shard.  Typed object methods accept a Txn, so the same Account, Queue,
// or custom-ADT wrapper works against a System and a Cluster alike.
type Txn = core.Txn

// ReadTxn is the read-only counterpart of Txn: a plain *ReadTx, or a
// cluster *DReadTx snapshotting every shard at one timestamp.
type ReadTxn = core.ReadTxn

// ReadTx is a read-only transaction (the paper's Section 7 extension): its
// timestamp — and serialization position — is chosen when it starts, it
// acquires no locks, and it never blocks writers.  It observes exactly the
// transactions that committed with earlier timestamps.  Close it promptly
// (Commit or Abort): while active it holds back intention compaction.
type ReadTx = core.ReadTx

// ErrNotReadOnly reports a state-changing operation attempted inside a
// read-only transaction.
var ErrNotReadOnly = core.ErrNotReadOnly

// Recorder captures the global event history for offline verification.
type Recorder = verify.Recorder

// NewRecorder returns an empty Recorder for use with WithRecorder.
func NewRecorder() *Recorder { return verify.NewRecorder() }

// Errors surfaced by the library.
var (
	// ErrTimeout reports a lock wait that exceeded the configured bound;
	// abort and retry (Atomically does this automatically).
	ErrTimeout = core.ErrTimeout
	// ErrTxDone reports use of a completed transaction.
	ErrTxDone = core.ErrTxDone
	// ErrTxBusy reports concurrent use of one transaction.
	ErrTxBusy = core.ErrTxBusy
	// ErrDeadlock reports that a blocked operation would close a waits-for
	// cycle (only with WithDeadlockDetection); abort and retry.
	ErrDeadlock = core.ErrDeadlock
	// ErrInvalidArgument reports a typed operation given an argument
	// outside its domain, such as a negative Credit.  It is refused before
	// any call, and Atomically does not retry it.
	ErrInvalidArgument = errors.New("hybridcc: argument outside the operation's domain")
)

// Scheme selects the concurrency-control conflict relation for an object.
type Scheme string

// Available schemes.
const (
	// Hybrid uses the paper's dependency-derived conflicts (default).
	Hybrid Scheme = "hybrid"
	// Commutativity uses forward-commutativity conflicts (dynamic atomic
	// two-phase locking, the paper's main comparison point).
	Commutativity Scheme = "commutativity"
	// ReadWrite uses classical untyped read/write locking.
	ReadWrite Scheme = "readwrite"
)

// Option configures a System.
type Option func(*config)

type config struct {
	lockWait          time.Duration
	deadlockDetection bool
	recorder          *Recorder
	commitTimeout     time.Duration
	// Durability knobs, meaningful to Open/OpenCluster only: fsync
	// defaults to on there (fsyncSet distinguishes "unset" from
	// WithFsync(false)); segmentSize zero keeps the log's default.
	fsync       bool
	fsyncSet    bool
	segmentSize int64
	// Checkpoint trigger, meaningful to Open/OpenCluster only: zero
	// disables the background checkpointer.
	checkpointBytes int64
	// dialDecisionDir, meaningful to Dial only: a durable home for the
	// client's commit-decision ledger (WithDialDecisionLog).
	dialDecisionDir string
	// Breaker knobs, meaningful to Dial only (WithShardBreaker).
	breakerThreshold int
	breakerBackoff   backoff.Policy
}

// WithLockWait bounds how long an operation waits on a lock conflict (or a
// blocked partial operation) before returning ErrTimeout.
func WithLockWait(d time.Duration) Option {
	return func(c *config) { c.lockWait = d }
}

// WithRecorder attaches a Recorder that observes every accepted event; use
// System.Verify to check the recorded history afterwards.
func WithRecorder(r *Recorder) Option {
	return func(c *config) { c.recorder = r }
}

// WithDeadlockDetection maintains a waits-for graph so a blocked operation
// that would close a cycle fails immediately with ErrDeadlock instead of
// timing out — the paper's "detection" remedy.
func WithDeadlockDetection() Option {
	return func(c *config) { c.deadlockDetection = true }
}

// WithCommitTimeout bounds each message round trip of a Cluster's commit
// protocol (ignored by NewSystem, whose commits are local).
func WithCommitTimeout(d time.Duration) Option {
	return func(c *config) { c.commitTimeout = d }
}

// WithGroupCommit does nothing: every commit is one transaction's, and
// concurrent durable commits already share the log's fsyncs.
//
// Deprecated: leave it out; it changes no behaviour.
func WithGroupCommit() Option {
	return func(*config) {}
}

// System manages hybrid atomic objects and mints transactions.
type System struct {
	inner    *core.System
	recorder *Recorder
	reg      *registry
	// bases holds the per-object states recovery seeded from a checkpoint
	// (nil on volatile systems and checkpoint-free recoveries): Verify
	// replays the recorded history from these rather than from Init.
	bases histories.StateMap
}

// NewSystem creates a System.
func NewSystem(opts ...Option) *System {
	var c config
	for _, o := range opts {
		o(&c)
	}
	coreOpts := core.Options{
		LockWait:          c.lockWait,
		DeadlockDetection: c.deadlockDetection,
	}
	if c.recorder != nil {
		coreOpts.Sink = c.recorder
	}
	return &System{
		inner:    core.NewSystem(coreOpts),
		recorder: c.recorder,
		reg:      newRegistry(),
	}
}

// Begin starts a transaction.
func (s *System) Begin() *Tx { return s.inner.Begin() }

// BeginCtx starts a transaction bound to ctx: cancelling ctx promptly
// unblocks any lock wait the transaction is in and fails its subsequent
// operations with an error wrapping ctx.Err().  The caller still completes
// the transaction with Abort.
func (s *System) BeginCtx(ctx context.Context) *Tx { return s.inner.BeginCtx(ctx) }

// BeginReadOnly starts a read-only transaction serializing at the current
// logical time.
func (s *System) BeginReadOnly() *ReadTx { return s.inner.BeginReadOnly() }

// Snapshot runs fn inside a read-only transaction and commits it.  Unlike
// Atomically, there is nothing to retry: readers take no locks; a timeout
// (a writer lingering in its commit window) is returned as ErrTimeout.
func (s *System) Snapshot(fn func(r *ReadTx) error) error {
	return s.SnapshotCtx(context.Background(), fn)
}

// SnapshotCtx is Snapshot bound to ctx: cancellation unblocks a reader
// waiting out a writer's commit window.
//
// The reader handle is drawn from a free list and recycled once fn
// returns.  The handle is therefore only valid inside fn: using a handle
// leaked out of the callback fails with ErrTxDone while the struct sits
// recycled, and is undefined once a later snapshot reuses it (do not
// retain it, as with any pooled resource).  Use BeginReadOnly for a
// handle that must outlive a callback.
func (s *System) SnapshotCtx(ctx context.Context, fn func(r *ReadTx) error) error {
	r := s.inner.BeginReadOnlyPooledCtx(ctx)
	// The reader pins every object's compaction horizon, so it must finish
	// on every way out of fn — an error, and a panic unwinding through
	// here.  After Commit the Abort is a refused no-op.
	defer func() {
		_ = r.Abort()
		s.inner.RecycleRead(r)
	}()
	if err := fn(r); err != nil {
		return err
	}
	return r.Commit()
}

// Atomically runs fn inside a transaction, committing on success and
// aborting on error.  Lock-wait timeouts and detected deadlocks are
// retried (fresh transaction, jittered exponential backoff) up to a
// bounded number of attempts — the standard remedies for the deadlocks any
// two-phase locking scheme admits.  The backoff breaks the lockstep
// re-collisions that a bare requester-aborts victim policy can livelock
// on.
func (s *System) Atomically(fn func(tx *Tx) error) error {
	return s.AtomicallyCtx(context.Background(), fn)
}

// AtomicallyCtx is Atomically bound to ctx.  Cancelling ctx promptly
// unblocks a transaction waiting on a lock, aborts it, and returns an
// error satisfying errors.Is(err, ctx.Err()); cancellation also cuts the
// retry backoff short.  A transaction that has already entered Commit is
// not interrupted — commits are never torn.
//
// The transaction handle is drawn from a free list and recycled once the
// attempt completes — the retry loop reuses one pooled Tx across attempts
// instead of allocating per attempt.  The handle is therefore only valid
// inside fn: using a handle leaked out of the callback fails with
// ErrTxDone while the struct sits recycled, and is undefined once a later
// transaction reuses it (do not retain it, as with any pooled resource).
// Use Begin/BeginCtx for handles that must outlive a callback.
func (s *System) AtomicallyCtx(ctx context.Context, fn func(tx *Tx) error) error {
	return atomicallyLoop(ctx, func() error {
		tx := s.inner.BeginPooledCtx(ctx)
		// The attempt's locks must go on every way out of fn — an error, a
		// failed commit, and a panic unwinding through here.  After a
		// successful Commit the Abort is a refused no-op.
		defer func() {
			_ = tx.Abort()
			s.inner.Recycle(tx)
		}()
		if err := fn(tx); err != nil {
			return err
		}
		return tx.Commit()
	})
}

// retryable reports whether one failed attempt is worth retrying with a
// fresh transaction: lock-wait timeouts, detected deadlocks, and — for
// clusters — commits the atomic-commitment protocol aborted, plus, on
// dialed clusters, shards unreachable mid-attempt (the transaction
// aborted there or resolves by presumed abort, so a retry is safe).
// ErrShardDown (a known-open circuit breaker) is retryable only under a
// context deadline; atomicallyLoop fails it fast otherwise.
func retryable(err error) bool {
	return errors.Is(err, ErrTimeout) || errors.Is(err, ErrDeadlock) ||
		errors.Is(err, ErrCommitAborted) || errors.Is(err, ErrShardUnavailable) ||
		errors.Is(err, ErrShardDown)
}

// atomicallyLoop drives attempt with the shared retry policy.  Contention
// failures (timeouts, deadlocks, protocol aborts) are re-run — fresh
// transaction, jittered exponential backoff — up to a bounded number of
// attempts.  Shard unavailability is paced on a slower schedule and
// bounded differently: under a context deadline the loop retries until
// the deadline (the attempt cap does not apply — a recovering shard is
// worth waiting out, and the caller said how long); without one, a
// known-open breaker (ErrShardDown) returns immediately — retrying
// against a breaker that fails fast would burn all attempts in
// microseconds and help nobody — while a bare ErrShardUnavailable keeps
// the bounded attempts.  Cancellation cuts any backoff short.
// System.AtomicallyCtx and Cluster.AtomicallyCtx differ only in what one
// attempt is.
func atomicallyLoop(ctx context.Context, attempt func() error) error {
	const maxAttempts = 16
	// Contention pauses start tiny — most conflicts clear in microseconds
	// — and grow to a few milliseconds; backoff's equal jitter breaks the
	// lockstep re-collisions a bare victim-retries policy livelocks on.
	contention := backoff.Policy{Base: 100 * time.Microsecond, Cap: 6400 * time.Microsecond}
	// A gone shard won't return in microseconds: pace those retries in
	// milliseconds, capped well below typical deadlines.
	unavailPol := backoff.Policy{Base: 5 * time.Millisecond, Cap: 250 * time.Millisecond}
	_, hasDeadline := ctx.Deadline()
	var first, last error
	counted, waits := 0, 0
	for {
		if err := ctx.Err(); err != nil {
			if last == nil {
				return err
			}
			return fmt.Errorf("hybridcc: transaction retries cut short: %w (last failure: %v)", err, last)
		}
		err := attempt()
		if err == nil {
			return nil
		}
		if !retryable(err) {
			return err
		}
		if first == nil {
			first = err
		}
		last = err

		down := errors.Is(err, ErrShardDown)
		gone := down || errors.Is(err, ErrShardUnavailable)
		if down && !hasDeadline {
			return err
		}
		pol := contention
		if gone {
			pol = unavailPol
		}
		if !(gone && hasDeadline) {
			counted++
			if counted >= maxAttempts {
				break
			}
		}
		waits++
		if !backoff.Sleep(ctx, pol.Delay(waits-1)) {
			return fmt.Errorf("hybridcc: transaction retries cut short: %w (last failure: %v)", ctx.Err(), last)
		}
	}
	// The first failure names the object the retry storm started on —
	// usually the contended one — which the last failure alone can hide.
	// Wrapping last keeps errors.Is(err, ErrTimeout/ErrDeadlock) working.
	if first.Error() == last.Error() {
		return fmt.Errorf("hybridcc: transaction retries exhausted after %d attempts: %w", maxAttempts, last)
	}
	return fmt.Errorf("hybridcc: transaction retries exhausted after %d attempts (first failure: %v): %w",
		maxAttempts, first, last)
}

// Stats returns system-wide counters.
func (s *System) Stats() core.StatsSnapshot { return s.inner.Stats() }

// SetScheme switches the named object's concurrency-control scheme at
// runtime (see Object.SetScheme).  It errors when no object is registered
// under name or the object carries no policy for the scheme.  The switch
// lasts for this process: Open reopens every object at the scheme its
// setup registers it under.
func (s *System) SetScheme(name string, scheme Scheme) error {
	return s.inner.SetObjectScheme(name, string(scheme))
}

// Verify checks the recorded history (requires WithRecorder): well-formed
// and hybrid atomic against the specifications of every object created
// through this System.  Read-only transactions are verified under the
// generalized (start-timestamped) rules.
func (s *System) Verify() error {
	return verifyRecorded(s.recorder, s.reg, s.bases)
}

// verifyRecorded checks a recorder's history against a registry's
// specifications — shared by System.Verify and Cluster.Verify (where the
// recorder holds the interleaved history of every shard, so the check
// proves global atomicity).  bases carries the checkpoint-seeded starting
// states of a recovered system (nil when recovery started from empty
// objects): the recorded history replays from those.
func verifyRecorded(rec *Recorder, reg *registry, bases histories.StateMap) error {
	if rec == nil {
		return errors.New("hybridcc: no recorder attached; construct with WithRecorder")
	}
	isReadOnly := func(id histories.TxID) bool { return strings.HasPrefix(string(id), "R") }
	return verify.CheckGeneralizedHybridAtomicFrom(rec.History(), reg.snapshot(), bases, isReadOnly)
}

// objectConfig accumulates object-creation options, carrying the first
// option error so registration can reject bad options instead of silently
// applying them.
type objectConfig struct {
	scheme    Scheme
	schemeSet bool
	err       error
}

// schemeOf applies object options and validates the result at creation
// time: an unknown scheme string or two conflicting WithScheme options is
// an error here, not a surprise at first use.
func schemeOf(opts []ObjectOption) (Scheme, error) {
	c := objectConfig{scheme: Hybrid}
	for _, o := range opts {
		o(&c)
	}
	if c.err != nil {
		return "", c.err
	}
	return c.scheme, nil
}

// ObjectOption configures a typed object at creation.
type ObjectOption func(*objectConfig)

// WithScheme selects the initial conflict relation (default Hybrid) — the
// scheme the object starts under; SetScheme can move it between schemes at
// runtime.  A scheme other than Hybrid,
// Commutativity, or ReadWrite fails registration with ErrUnknownScheme;
// two WithScheme options naming different schemes fail it with
// ErrConflictingOptions (repeating the same scheme is harmless).
func WithScheme(s Scheme) ObjectOption {
	return func(c *objectConfig) {
		switch s {
		case Hybrid, Commutativity, ReadWrite:
		default:
			if c.err == nil {
				c.err = fmt.Errorf("%w: %q", ErrUnknownScheme, s)
			}
			return
		}
		if c.schemeSet && c.scheme != s {
			if c.err == nil {
				c.err = fmt.Errorf("%w: WithScheme(%q) after WithScheme(%q)", ErrConflictingOptions, s, c.scheme)
			}
			return
		}
		c.scheme, c.schemeSet = s, true
	}
}
