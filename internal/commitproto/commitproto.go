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
// The coordinator talks to participants through the Transport seam:
//
//   - Direct calls the participant in-process with no goroutine, channel,
//     or timer per message — what an in-process cluster (internal/cluster)
//     puts on the commit path;
//   - internal/netproto's shard connection carries the same three messages
//     to a shard served in another process, and has the Scatterer capability:
//     a round of such transports puts every message on the wire before it
//     waits for any reply, so a round costs one round trip, not one per site;
//   - FaultTransport wraps either with a deterministic script of lost,
//     delayed, duplicated, held and reordered messages — the fault model
//     every crash-path suite runs over.
//
// A transport must stay deliverable until every decision re-delivery the
// caller intends has completed: the protocol's phase 2 is timeout-bounded,
// so a caller that re-applies a missed decision (standard 2PC recovery)
// does it after RunTransports returns, and closing a transport first would
// turn recovery into a lost decision.  Close transports only after the
// decision is fully applied.
package commitproto

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
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

// Transport delivers protocol messages to one participant site.  Every
// method reports ok=false when the site is unreachable (crashed, timed
// out, or the context was cancelled before delivery); the coordinator
// treats an unreachable prepare as a veto and an unreachable decision as
// lost (the caller re-applies it through recovery).
type Transport interface {
	// Name identifies the site in error reports.
	Name() string
	// Prepare delivers the prepare request and returns the participant's
	// timestamp lower bound and vote.
	Prepare(ctx context.Context, tx histories.TxID, timeout time.Duration) (lower histories.Timestamp, vote, ok bool)
	// Commit delivers the commit decision.
	Commit(ctx context.Context, tx histories.TxID, ts histories.Timestamp, timeout time.Duration) (ok bool)
	// Abort delivers the abort decision.
	Abort(ctx context.Context, tx histories.TxID, timeout time.Duration) (ok bool)
}

// Scatterer is the optional capability of a Transport whose messages take
// a round trip worth overlapping (a wire): each Start method puts the
// message on its way without waiting and returns the completion that waits
// for the reply and reports what the blocking method of the same name
// would have.  The blocking method of such a transport is its Start method
// followed at once by the completion.  The caller runs every completion it
// was given exactly once, whatever the other sites answered — a started
// request owns its connection until its reply is read — and starts at most
// one message per site at a time.
//
// When every transport of a round is a Scatterer, the coordinator starts
// the round's message at every site before it completes any, on the
// caller's goroutine; otherwise (Direct, FaultTransport) it calls the
// blocking methods as before.
type Scatterer interface {
	StartPrepare(ctx context.Context, tx histories.TxID, timeout time.Duration) func() (lower histories.Timestamp, vote, ok bool)
	StartCommit(ctx context.Context, tx histories.TxID, ts histories.Timestamp, timeout time.Duration) func() (ok bool)
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
// no per-commit lifecycle to tear down.  Crash makes the site unreachable
// (messages are dropped without reaching the participant), which is how
// the crash-path protocol tests kill a site; a slow, lossy or reordering
// site is a FaultTransport around a Direct.  Calls are synchronous, so the
// timeout parameter is ignored and only pre-call cancellation is observed.
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

// Prepare implements Transport.
func (d *Direct) Prepare(ctx context.Context, tx histories.TxID, _ time.Duration) (histories.Timestamp, bool, bool) {
	if d.crashed.Load() || ctx.Err() != nil {
		return 0, false, false
	}
	lower, vote := d.p.Prepare(tx)
	return lower, vote, true
}

// Commit implements Transport.
func (d *Direct) Commit(ctx context.Context, tx histories.TxID, ts histories.Timestamp, _ time.Duration) bool {
	if d.crashed.Load() || ctx.Err() != nil {
		return false
	}
	d.p.Commit(tx, ts)
	return true
}

// Abort implements Transport.
func (d *Direct) Abort(ctx context.Context, tx histories.TxID, _ time.Duration) bool {
	if d.crashed.Load() || ctx.Err() != nil {
		return false
	}
	d.p.Abort(tx)
	return true
}

// workerPool is a bounded pool of fan-out workers shared by every protocol
// round of one Coordinator — the coordinator-side batcher: concurrent
// cross-shard commits reuse the same resident goroutines for their prepare
// and decision fan-outs instead of spawning fresh ones per round.
//
// A task is handed to the queue only after reserving an idle worker (a
// CAS-decrement of the idle count), so it can never sit behind a worker
// stalled in a slow or crashed site's message: with no idle worker a new
// one is spawned up to max, and beyond max the task runs on a one-off
// goroutine.
type workerPool struct {
	tasks   chan func()
	idle    atomic.Int32
	workers atomic.Int32
	max     int32
}

func newWorkerPool() *workerPool {
	max := int32(4 * runtime.GOMAXPROCS(0))
	return &workerPool{tasks: make(chan func(), 4*max), max: max}
}

// submit runs f on an idle pooled worker if one can be reserved, else on a
// freshly spawned worker (bounded by max), else on a plain goroutine.  f
// always runs; submit never blocks.
func (p *workerPool) submit(f func()) {
	for {
		n := p.idle.Load()
		if n <= 0 {
			break
		}
		if p.idle.CompareAndSwap(n, n-1) {
			// The reservation guarantees a worker is at (or heading to)
			// the channel receive, and the buffer outsizes max, so this
			// send cannot block.
			p.tasks <- f
			return
		}
	}
	p.spawn(f)
}

// poolIdleTimeout is how long a resident worker waits for its next task
// before retiring: the pool shrinks back to nothing when a coordinator
// goes quiet, so discarded Coordinators leak no goroutines.
const poolIdleTimeout = time.Second

// spawn starts a resident worker seeded with f if the pool has room, and
// otherwise runs f on a one-off goroutine.
func (p *workerPool) spawn(f func()) {
	if n := p.workers.Add(1); n <= p.max {
		go func() {
			f()
			for {
				// The matching decrement happens in submit's reservation.
				p.idle.Add(1)
				select {
				case t := <-p.tasks:
					t()
				case <-time.After(poolIdleTimeout):
					// Retract the idle token and retire.  If the token is
					// gone, a submitter already reserved it — a task is
					// owed to the channel, so take exactly one more.
					if p.retractIdle() {
						p.workers.Add(-1)
						return
					}
					t := <-p.tasks
					t()
				}
			}
		}()
		return
	}
	p.workers.Add(-1)
	go f()
}

// retractIdle removes one idle token if any remain.  Tokens are fungible —
// retracting "someone else's" is fine, the count is what matters: it must
// equal the number of workers that will come to the channel for a task.
func (p *workerPool) retractIdle() bool {
	for {
		n := p.idle.Load()
		if n <= 0 {
			return false
		}
		if p.idle.CompareAndSwap(n, n-1) {
			return true
		}
	}
}

// Coordinator drives two-phase commit rounds and owns the logical clock
// that issues commit timestamps.  One Coordinator serves concurrent
// rounds; their message fan-outs share its worker pool.
type Coordinator struct {
	clock   tstamp.Clock
	timeout time.Duration

	// The hooks SetDecisionLog and SetDecisionResolved install, or nil.
	decisionLog      func(tx histories.TxID, ts histories.Timestamp) error
	decisionResolved func(tx histories.TxID, ts histories.Timestamp)

	poolOnce sync.Once
	pool     *workerPool
}

// SetDecisionLog installs a write-ahead hook for commit decisions: f runs
// after every vote is in and the timestamp is chosen, before any
// participant is told to commit.  Recovery uses the logged record to
// resolve prepared-but-undecided participants; under the presumed-abort
// rule only commits are logged — a missing record means abort.  If f
// fails, the round aborts (no participant has seen the commit decision, so
// abort is still a legal outcome).  Set before the first round; the hook
// must be safe for concurrent rounds.
func (c *Coordinator) SetDecisionLog(f func(tx histories.TxID, ts histories.Timestamp) error) {
	c.decisionLog = f
}

// SetDecisionResolved installs a hook that runs when EVERY participant
// acknowledged a commit decision in phase 2, so the caller's ledger may
// discharge it (Ledger.Discharge).  Install it only where an ack proves the
// commit durably applied, as the wire transport's does; an ack that means
// "delivered" would discharge decisions recovery still needs.  If any
// delivery fails the hook does not run, and the decision stays: garbage,
// never a hazard.  Set before the first round; the hook must be safe for
// concurrent rounds.
func (c *Coordinator) SetDecisionResolved(f func(tx histories.TxID, ts histories.Timestamp)) {
	c.decisionResolved = f
}

// NewCoordinator returns a coordinator drawing timestamps from clock.
// timeout bounds each message round trip.
func NewCoordinator(clock tstamp.Clock, timeout time.Duration) *Coordinator {
	return &Coordinator{clock: clock, timeout: timeout}
}

func (c *Coordinator) workers() *workerPool {
	c.poolOnce.Do(func() { c.pool = newWorkerPool() })
	return c.pool
}

// inlineCalls is the widest round whose blocking calls run one after the
// other on the caller's goroutine; wider ones go to the worker pool.
const inlineCalls = 2

// pooled runs f(i) for every transport index of a wide round of blocking
// calls: one on the caller's goroutine, the rest on the coordinator's
// shared worker pool.
func (c *Coordinator) pooled(n int, f func(int)) {
	var wg sync.WaitGroup
	wg.Add(n - 1)
	w := c.workers()
	for i := 1; i < n; i++ {
		i := i
		w.submit(func() {
			defer wg.Done()
			f(i)
		})
	}
	f(0)
	wg.Wait()
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

// scatterers returns the transports as Scatterers, in buf when they fit, if
// every one of them has the capability, and nil otherwise: a round is
// scattered whole or not at all.
func scatterers(trs []Transport, buf []Scatterer) []Scatterer {
	sc := sized(buf, len(trs))
	for i, tr := range trs {
		s, ok := tr.(Scatterer)
		if !ok {
			return nil
		}
		sc[i] = s
	}
	return sc
}

// Each message round reaches the sites one of three ways.  Scattered, when
// sc is set: every site's message is started before any reply is gathered,
// and the gather runs every completion — a no-vote or an unreachable site
// does not stop it, because a started request must have its reply read
// before its connection carries the next message.  Inline, for up to
// inlineCalls sites without the capability: blocking calls one after the
// other, cheaper than any goroutine handoff for the in-process direct
// transport, whose messages are method calls; the price is that a stalled
// site delays its peer's message by up to the round-trip timeout.  Pooled,
// for wider rounds of blocking calls.

// voteResult is one site's answer to the prepare message.
type voteResult struct {
	lower histories.Timestamp
	vote  bool
	ok    bool
}

// prepare is one blocking prepare call.
func (c *Coordinator) prepare(ctx context.Context, tr Transport, tx histories.TxID) voteResult {
	lower, vote, ok := tr.Prepare(ctx, tx, c.timeout)
	return voteResult{lower: lower, vote: vote, ok: ok}
}

// prepareRound delivers the prepare message to every site and stores site
// i's answer in votes[i]; each slot is owned by exactly one call, so the
// results need no channel.
func (c *Coordinator) prepareRound(ctx context.Context, tx histories.TxID, trs []Transport, sc []Scatterer, votes []voteResult) {
	switch {
	case sc != nil:
		var buf [inlineSites]func() (histories.Timestamp, bool, bool)
		gather := sized(buf[:], len(sc))
		for i, s := range sc {
			gather[i] = s.StartPrepare(ctx, tx, c.timeout)
		}
		for i, finish := range gather {
			lower, vote, ok := finish()
			votes[i] = voteResult{lower: lower, vote: vote, ok: ok}
		}
	case len(trs) <= inlineCalls:
		for i, tr := range trs {
			votes[i] = c.prepare(ctx, tr, tx)
		}
	default:
		c.pooled(len(trs), func(i int) { votes[i] = c.prepare(ctx, trs[i], tx) })
	}
}

// decide delivers the decision — commit at ts, or abort — to one site.
// Decisions go out without the caller's ctx: participants that voted yes
// hold locks until they learn the decision, so it must be delivered even
// though the caller may have given up (each message is still individually
// timeout-bounded).
func (c *Coordinator) decide(tr Transport, tx histories.TxID, commit bool, ts histories.Timestamp) bool {
	if commit {
		return tr.Commit(context.Background(), tx, ts, c.timeout)
	}
	return tr.Abort(context.Background(), tx, c.timeout)
}

// decisionRound delivers the decision to every site and reports whether
// all of them acknowledged it.
func (c *Coordinator) decisionRound(tx histories.TxID, trs []Transport, sc []Scatterer, commit bool, ts histories.Timestamp) bool {
	all := true
	switch {
	case sc != nil:
		var buf [inlineSites]func() bool
		gather := sized(buf[:], len(sc))
		for i, s := range sc {
			if commit {
				gather[i] = s.StartCommit(context.Background(), tx, ts, c.timeout)
			} else {
				gather[i] = s.StartAbort(context.Background(), tx, c.timeout)
			}
		}
		for _, finish := range gather {
			all = finish() && all
		}
	case len(trs) <= inlineCalls:
		for _, tr := range trs {
			all = c.decide(tr, tx, commit, ts) && all
		}
	default:
		var missed atomic.Bool
		c.pooled(len(trs), func(i int) {
			if !c.decide(trs[i], tx, commit, ts) {
				missed.Store(true)
			}
		})
		all = !missed.Load()
	}
	return all
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
// How a round's messages travel depends on what the transports are, not on
// an option: when every one is a Scatterer the three rounds (prepare,
// decide, abort) each scatter their message to all sites before gathering
// any reply; otherwise each is blocking calls, inline or pooled by width.
// The messages, their order per site and their order against the decision
// log are the same either way.
func (c *Coordinator) RunTransports(ctx context.Context, tx histories.TxID, trs []Transport) (Decision, histories.Timestamp, error) {
	n := len(trs)
	if n == 0 {
		return Aborted, 0, ErrNoParticipants
	}
	var scBuf [inlineSites]Scatterer
	sc := scatterers(trs, scBuf[:])

	// Phase 1: prepare, collecting votes and timestamp lower bounds.
	var votesBuf [inlineSites]voteResult
	votes := sized(votesBuf[:], n)
	c.prepareRound(ctx, tx, trs, sc, votes)
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
		c.decisionRound(tx, trs, sc, false, 0)
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
		// must be durable first — no commit message is started, scattered
		// or not, until the hook has returned nil.  A failed append turns
		// the round into an abort — every participant is still merely
		// prepared, and under presumed abort that is exactly what an
		// unlogged decision means.
		if err := c.decisionLog(tx, ts); err != nil {
			c.decisionRound(tx, trs, sc, false, 0)
			return Aborted, 0, fmt.Errorf("commitproto: decision for %s not logged, aborted: %w", tx, err)
		}
	}
	if c.decisionRound(tx, trs, sc, true, ts) && c.decisionResolved != nil {
		c.decisionResolved(tx, ts)
	}
	return Committed, ts, nil
}
