// Package commitproto implements atomic commitment: a two-phase commit
// protocol over participants, with commit-timestamp generation piggybacked
// on the protocol messages exactly as Section 2 of Herlihy & Weihl
// suggests ("algorithms that piggyback timestamp information on the
// messages of a commit protocol").
//
// During the prepare phase each participant votes and reports a lower bound
// on the transaction's commit timestamp (the Section 6 bound recorded when
// the transaction last executed there).  The coordinator draws the commit
// timestamp from its logical clock primed with the maximum reported bound,
// which establishes precedes(H|X) ⊆ TS(H) at every participant.
//
// The coordinator talks to participants through the Transport seam, and
// every round reaches its sites one way: each message is started at every
// site, then every completion is run.
//
//   - Direct calls the participant in-process with no goroutine, channel,
//     or timer per message — what an in-process cluster (internal/cluster)
//     puts on the commit path; its sites are called one after the other;
//   - internal/netproto's shard connection carries the same three messages
//     to a shard served in another process: every message of a round is on
//     the wire before any reply is read, so a round costs one round trip,
//     not one per site;
//   - FaultTransport is a controller whose Wrap puts either behind a
//     deterministic script of lost, delayed, duplicated, held and reordered
//     messages — the fault model every crash-path suite runs over.
//
// A round returns at its decision, without waiting for acknowledgements:
// the wire transport keeps each decision in its client's outbox until the
// shard acknowledges it, and resends a lost one.  The decision itself is
// piggybacked the same way as the timestamps: the wire transport buffers
// a commit decision unsent, for the next message on its connection to
// carry ahead of it (or a timer, if none comes within a millisecond), so
// a busy client's decision round costs no message of its own.  A
// transport must stay open until its decisions are applied — a caller that
// re-applies a missed decision (standard 2PC recovery) does it after
// RunTransports returns — and closing a wire transport makes one last
// attempt, within one RPC timeout, and names each decision it could not
// deliver.
package commitproto

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"hybridcc/internal/histories"
	"hybridcc/internal/tstamp"
)

// Participant is a resource manager taking part in two-phase commit.
type Participant interface {
	// Prepare votes on committing tx.  It returns the participant's lower
	// bound on the commit timestamp and true to vote yes; returning false
	// vetoes the commit.
	Prepare(tx histories.TxID) (lower histories.Timestamp, ok bool)
	// Commit applies the decision with the coordinator's timestamp.
	Commit(tx histories.TxID, ts histories.Timestamp)
	// Abort rolls the transaction back.
	Abort(tx histories.TxID)
}

// Transport delivers protocol messages to one participant site.  Each
// Start method puts its message on the way to the site and returns the
// completion that waits for the answer: ok=false when the site is
// unreachable (crashed, timed out, or the context was cancelled before
// delivery).  The coordinator treats an unreachable prepare as a veto and
// an unreachable decision as lost (the caller re-applies it through
// recovery).  A transport whose messages are method calls delivers in the
// Start method and returns the answer it already has; one whose messages
// take a round trip (a wire) sends in the Start method and reads the reply
// in the completion, so a round overlaps its sites' round trips.
//
// The caller runs every completion it was given exactly once, whatever the
// other sites answered — a started request owns its connection until its
// reply is read — and starts at most one message per site at a time.
type Transport interface {
	// Name identifies the site in error reports.
	Name() string
	// StartPrepare sends the prepare request; the completion reports the
	// participant's timestamp lower bound and vote.
	StartPrepare(ctx context.Context, tx histories.TxID, timeout time.Duration) func() (lower histories.Timestamp, vote, ok bool)
	// StartCommit sends the commit decision; the completion reports
	// whether the site acknowledged it, or, on a transport that reads the
	// acknowledgement later, whether it was sent (a round does not read it).
	StartCommit(ctx context.Context, tx histories.TxID, ts histories.Timestamp, timeout time.Duration) func() (ok bool)
	// StartAbort sends the abort decision; the completion reports whether
	// the site acknowledged it.
	StartAbort(ctx context.Context, tx histories.TxID, timeout time.Duration) func() (ok bool)
}

// Decision is the outcome of a protocol round.
type Decision int

// Protocol outcomes.
const (
	Committed Decision = iota
	Aborted
)

// String implements fmt.Stringer.
func (d Decision) String() string {
	if d == Committed {
		return "committed"
	}
	return "aborted"
}

// ErrNoParticipants is returned when a round is started with no
// participants.
var ErrNoParticipants = errors.New("commitproto: no participants")

// Direct is the in-process transport: protocol messages are plain method
// calls on the participant — no goroutine, no per-message channel or timer,
// no per-commit lifecycle to tear down.  Each Start method calls the
// participant at once and returns a completion that only reports the
// answer, so a round over Directs calls its sites one after the other on
// the caller's goroutine.  Crash makes the site unreachable (messages are
// dropped without reaching the participant), which is how the crash-path
// protocol tests kill a site; a slow, lossy or reordering site is a Direct
// wrapped by a FaultTransport.  Calls are synchronous, so the timeout
// parameter is ignored and only pre-call cancellation is observed.
type Direct struct {
	name    string
	p       Participant
	crashed atomic.Bool
}

var _ Transport = (*Direct)(nil)

// NewDirect returns a direct transport for p.
func NewDirect(name string, p Participant) *Direct {
	return &Direct{name: name, p: p}
}

// Crash makes the transport unreachable: subsequent messages are dropped
// before reaching the participant.
func (d *Direct) Crash() { d.crashed.Store(true) }

// Name implements Transport.
func (d *Direct) Name() string { return d.name }

// unreachable is the prepare completion of a site the request never reached.
func unreachable() (histories.Timestamp, bool, bool) { return 0, false, false }

// acked and missed are the decision completions of a site the decision did
// and did not reach.
func acked() bool  { return true }
func missed() bool { return false }

// StartPrepare implements Transport.
func (d *Direct) StartPrepare(ctx context.Context, tx histories.TxID, _ time.Duration) func() (histories.Timestamp, bool, bool) {
	if d.crashed.Load() || ctx.Err() != nil {
		return unreachable
	}
	lower, vote := d.p.Prepare(tx)
	return func() (histories.Timestamp, bool, bool) { return lower, vote, true }
}

// StartCommit implements Transport.
func (d *Direct) StartCommit(ctx context.Context, tx histories.TxID, ts histories.Timestamp, _ time.Duration) func() bool {
	if d.crashed.Load() || ctx.Err() != nil {
		return missed
	}
	d.p.Commit(tx, ts)
	return acked
}

// StartAbort implements Transport.
func (d *Direct) StartAbort(ctx context.Context, tx histories.TxID, _ time.Duration) func() bool {
	if d.crashed.Load() || ctx.Err() != nil {
		return missed
	}
	d.p.Abort(tx)
	return acked
}

// Coordinator drives two-phase commit rounds and owns the logical clock
// that issues commit timestamps.  One Coordinator serves concurrent
// rounds, each on its caller's goroutine.
type Coordinator struct {
	clock   tstamp.Clock
	timeout time.Duration

	// decisionLog is the hook SetDecisionLog installs, or nil.
	decisionLog func(tx histories.TxID, ts histories.Timestamp, parts int) error
}

// SetDecisionLog installs a write-ahead hook for commit decisions: f runs
// after every vote is in and the timestamp is chosen, before any
// participant is told to commit, and is told how many participants the
// decision goes to — the acknowledgements a ledger counts before it
// discharges the decision (Ledger.Ack).  Recovery uses the logged record to
// resolve prepared-but-undecided participants; under the presumed-abort
// rule only commits are logged — a missing record means abort.  If f
// fails, the round aborts (no participant has seen the commit decision, so
// abort is still a legal outcome).  Set before the first round; the hook
// must be safe for concurrent rounds.
func (c *Coordinator) SetDecisionLog(f func(tx histories.TxID, ts histories.Timestamp, parts int) error) {
	c.decisionLog = f
}

// NewCoordinator returns a coordinator drawing timestamps from clock.
// timeout bounds each message round trip.
func NewCoordinator(clock tstamp.Clock, timeout time.Duration) *Coordinator {
	return &Coordinator{clock: clock, timeout: timeout}
}

// inlineSites is the number of participants whose per-round state fits in
// the coordinator's stack buffers; wider rounds allocate.
const inlineSites = 4

// sized returns buf cut to n elements, or a fresh slice when n outgrows it.
func sized[T any](buf []T, n int) []T {
	if n > len(buf) {
		return make([]T, n)
	}
	return buf[:n]
}

// Each message round starts its message at every site before it runs any
// completion, and runs every completion — a no-vote or an unreachable site
// does not stop it, because a started request must have its reply read
// before its connection carries the next message.

// voteResult is one site's answer to the prepare message.
type voteResult struct {
	lower histories.Timestamp
	vote  bool
	ok    bool
}

// prepareRound delivers the prepare message to every site and stores site
// i's answer in votes[i].
func (c *Coordinator) prepareRound(ctx context.Context, tx histories.TxID, trs []Transport, votes []voteResult) {
	var buf [inlineSites]func() (histories.Timestamp, bool, bool)
	gather := sized(buf[:], len(trs))
	for i, tr := range trs {
		gather[i] = tr.StartPrepare(ctx, tx, c.timeout)
	}
	for i, finish := range gather {
		lower, vote, ok := finish()
		votes[i] = voteResult{lower: lower, vote: vote, ok: ok}
	}
}

// decisionRound delivers the decision — commit at ts, or abort — to every
// site.  Decisions go out without the caller's ctx: participants that voted
// yes hold locks until they learn the decision, so it must be delivered
// even though the caller may have given up (each message is still
// individually timeout-bounded).  What the completions report is not
// used: a lost decision is the transport's to redeliver, or the caller's
// to re-apply.
func (c *Coordinator) decisionRound(tx histories.TxID, trs []Transport, commit bool, ts histories.Timestamp) {
	var buf [inlineSites]func() bool
	gather := sized(buf[:], len(trs))
	for i, tr := range trs {
		if commit {
			gather[i] = tr.StartCommit(context.Background(), tx, ts, c.timeout)
		} else {
			gather[i] = tr.StartAbort(context.Background(), tx, c.timeout)
		}
	}
	for _, finish := range gather {
		finish()
	}
}

// RunTransports executes one two-phase commit round for tx across the
// given transports and returns the decision and, when committed, the
// timestamp distributed to every participant.  Any missing or negative vote
// aborts the round; abort messages are sent best-effort to all reachable
// participants.  Cancellation is honored only while the outcome is
// still open: a cancel during the prepare phase aborts the round (abort
// messages are still delivered outside ctx, so no participant is left
// prepared), and the returned error wraps ctx.Err().  Once every vote is
// in and affirmative, the decision is commit — phase 2 ignores ctx,
// because a decided commit must reach every participant or the transaction
// would be torn.  The caller owns transport lifecycle: transports must
// outlive every decision (re-)delivery, including recovery after the round.
//
// Each of the round's messages (prepare, then commit or abort) is started
// at every site before any completion runs, on the caller's goroutine: a
// round over wire transports costs one round trip per message, and one
// over Directs calls the sites one after the other.
func (c *Coordinator) RunTransports(ctx context.Context, tx histories.TxID, trs []Transport) (Decision, histories.Timestamp, error) {
	n := len(trs)
	if n == 0 {
		return Aborted, 0, ErrNoParticipants
	}

	// Phase 1: prepare, collecting votes and timestamp lower bounds.
	var votesBuf [inlineSites]voteResult
	votes := sized(votesBuf[:], n)
	c.prepareRound(ctx, tx, trs, votes)
	lower := histories.Timestamp(0)
	allYes := true
	var failed []string
	for i, v := range votes {
		switch {
		case !v.ok:
			allYes = false
			failed = append(failed, trs[i].Name())
		case !v.vote:
			allYes = false
		default:
			if v.lower > lower {
				lower = v.lower
			}
		}
	}

	if err := ctx.Err(); err != nil || !allYes {
		c.decisionRound(tx, trs, false, 0)
		if err != nil {
			return Aborted, 0, fmt.Errorf("commitproto: round cancelled: %w", err)
		}
		if len(failed) > 0 {
			return Aborted, 0, fmt.Errorf("commitproto: participants unreachable: %v", failed)
		}
		return Aborted, 0, nil
	}

	// Phase 2: decide.  The timestamp exceeds every participant's bound,
	// establishing the precedes ⊆ TS constraint at each object.  In
	// standard 2PC a participant that voted yes must apply the decision
	// when it recovers; delivery is best-effort here, and a participant
	// the message missed is re-applied by the caller (which is why the
	// transports must still be alive after the round returns).
	ts := c.clock.Next(lower)
	if c.decisionLog != nil {
		// Decision-before-delivery: once any participant learns the commit
		// it may expose the transaction's effects, so the decision record
		// must be durable first — no commit message is started until the
		// hook has returned nil.  A failed append turns the round into an
		// abort — every participant is still merely prepared, and under
		// presumed abort that is exactly what an unlogged decision means.
		if err := c.decisionLog(tx, ts, n); err != nil {
			c.decisionRound(tx, trs, false, 0)
			return Aborted, 0, fmt.Errorf("commitproto: decision for %s not logged, aborted: %w", tx, err)
		}
	}
	c.decisionRound(tx, trs, true, ts)
	return Committed, ts, nil
}
