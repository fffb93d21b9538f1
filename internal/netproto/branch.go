package netproto

import (
	"errors"
	"fmt"
	"time"

	"hybridcc/internal/core"
	"hybridcc/internal/histories"
)

// branchState is where a branch is in its life on the shard.
type branchState uint8

const (
	branchActive    branchState = iota // takes its owner's calls
	branchPrepared                     // voted yes; awaits its decision
	branchDeciding                     // a commit, decided or fast-path, is being applied
	branchFailed                       // a decided commit could not be logged
	branchRecovered                    // prepared before a restart; awaits its decision
	branchReading                      // a read-only branch; pins the shard's forget horizon
	nStates
)

var stateNames = [nStates]string{"active", "prepared", "deciding", "failed", "recovered", "reading"}

// branch is one branch: an update branch's tx, or a read branch's read.
// tx is nil once recovered and owner once disowned; since is when the
// branch began, or voted yes.
type branch struct {
	tx    *core.Tx
	read  *core.ReadTx
	state branchState
	owner *serverConn
	since time.Time
}

// branchTable is the shard's branches, update and read, one per
// transaction id, their count by state, and the outcomes remembered for
// status probes.  Only step changes it, under the server's mutex.
type branchTable struct {
	live     map[histories.TxID]*branch
	count    [nStates]int
	outcomes map[histories.TxID]txOutcome
	order    []histories.TxID
}

// txOutcome is a remembered completion, for status probes.
type txOutcome struct {
	status byte
	ts     histories.Timestamp
}

// outcomeCap bounds the remembered-outcome ring; older outcomes are
// forgotten (probes then answer unknown, which callers treat as presumed
// abort only when the shard has no trace at all).
const outcomeCap = 65536

// branchEvKind is what happened: a request, a connection closing, the
// log's recovery, or the result of the core call the last action named.
type branchEvKind uint8

const (
	evCall         branchEvKind = iota // a call from conn
	evReadBegin                        // a read-only branch begins on conn
	evReadActivate                     // a read branch's snapshot timestamp, from conn
	evReadCall                         // a read through the branch, from conn
	evReadComplete                     // a read branch's end, from conn
	evCommit                           // a fast-path commit from conn
	evPrepare                          // a prepare from conn
	evDecide                           // a commit decision at ts
	evAbort                            // an abort
	evStatus                           // a fate probe
	evDrop                             // conn closed
	evRecover                          // the log holds the branch committed at ts, or prepared when ts is 0
	evScanned                          // every branch the log holds is in
	evCommitted                        // CommitAbove returned err, committing at ts
	evVoted                            // Prepare returned err, at time at
	evApplied                          // CommitAt(ts) returned err
	evResolved                         // ResolvePending(ts), or AbandonPendingTx when ts is 0, returned err
	evFinished                         // FinishRecovery returned err
)

// branchEvent is one input of step.  closed is set while the server shuts
// down.
type branchEvent struct {
	kind   branchEvKind
	conn   *serverConn
	closed bool
	ts     histories.Timestamp
	at     time.Time
	err    error
}

// coreCall is the core call an action names.
type coreCall uint8

const (
	none          coreCall = iota
	doBegin                // BeginBranch, then Call
	doCall                 // Call
	doCommitAbove          // CommitAbove, reported as evCommitted
	doPrepare              // Prepare, reported as evVoted
	doCommitAt             // CommitAt(ts), reported as evApplied
	doAbort                // Abort
	doResolve              // ResolvePending(ts), reported as evResolved
	doAbandon              // AbandonPendingTx, reported as evResolved
	doFinish               // FinishRecovery, reported as evFinished
	doReadBegin            // BeginReadOnlyBranch
	doActivate             // ActivateAt(ts)
	doReadCall             // ReadCall
	doReadEnd              // Commit or Abort the read, as its complete says; Abort on a drop
)

// branchAction is what to do: make the core call do names on branch b, at
// ts, or answer err.  out is a status probe's answer.
type branchAction struct {
	do  coreCall
	b   *branch
	ts  histories.Timestamp
	out txOutcome
	err error
}

// recovering reports whether a recovered branch is still unresolved.
func (t *branchTable) recovering() bool { return t.count[branchRecovered] > 0 }

// step applies ev to branch id and returns what to do.  It does no I/O;
// branchrules.txt lists what it does.
func (t *branchTable) step(id histories.TxID, ev branchEvent) (a branchAction) {
	b, k := t.live[id], ev.kind
	a.b, a.ts = b, ev.ts
	work, decision := k == evCall || k == evPrepare || k == evReadBegin, k == evDecide || k == evAbort
	read, reading := k >= evReadBegin && k <= evReadComplete, b != nil && b.state == branchReading
	switch {
	case work && t.recovering():
		a.err = ErrRecovering
	case work && ev.closed:
		a.err = errors.New("netproto: server shutting down")
	case k == evReadBegin && b != nil:
		a.err = fmt.Errorf("netproto: transaction %s already has a branch here", id)
	case k == evReadBegin:
		a.do, a.b = doReadBegin, &branch{owner: ev.conn}
		t.set(id, a.b, branchReading)
	case k == evReadComplete && b == nil:
		// Finished already, or never begun: acknowledged.
	case k == evCall && b == nil && t.outcomes[id].status != outcomeUnknown:
		a.err = fmt.Errorf("%w (outcome %d)", core.ErrTxDone, t.outcomes[id].status)
	case k == evCall && b == nil:
		a.do, a.b = doBegin, &branch{owner: ev.conn}
		t.set(id, a.b, branchActive)
	case (k == evCall || k == evCommit || read) && b != nil && b.owner != ev.conn:
		a.err = fmt.Errorf("netproto: transaction %s owned by another connection", id)
	case read && !reading:
		a.err = fmt.Errorf("netproto: no read branch %s", id)
	case k == evCall && reading:
		a.err = fmt.Errorf("netproto: %s is a read branch", id)
	case k == evReadActivate:
		a.do = doActivate
	case k == evReadCall:
		a.do = doReadCall
	case k == evReadComplete, k == evDrop && reading && b.owner == ev.conn:
		a.do = doReadEnd
		t.end(id, txOutcome{})
	case k == evCall:
		a.do = doCall
	case k == evPrepare:
		// A no vote, unless the branch is this connection's or disowned.
		if b != nil && (b.owner == nil || b.owner == ev.conn) && b.state <= branchPrepared {
			a.do = doPrepare
		}
	case k == evCommit && b == nil:
		a.err = fmt.Errorf("%w: no branch of %s", core.ErrTxDone, id)
	case k == evCommit && b.state != branchActive:
		a.err = fmt.Errorf("netproto: %s is %s, not active", id, stateNames[b.state])
	case k == evCommit:
		a.do = doCommitAbove
		t.set(id, b, branchDeciding)
	case decision && (b == nil || reading):
		// Resolved and forgotten, or never seen: acknowledged.
	case decision && b.state == branchRecovered && k == evDecide:
		a.do = doResolve
	case decision && b.state == branchRecovered:
		a.do, a.ts = doAbandon, 0
	case decision && b.state == branchFailed:
		a.err = fmt.Errorf("netproto: commit of %s decided but not durably applied (log failure); restart the shard to recover", id)
	case decision && b.state == branchDeciding:
		a.err = fmt.Errorf("netproto: commit of %s already being applied", id)
	case k == evDecide:
		a.do = doCommitAt
		t.set(id, b, branchDeciding)
	case k == evAbort, k == evDrop && b != nil && b.owner == ev.conn && b.state == branchActive:
		a.do = doAbort
		t.end(id, txOutcome{status: outcomeAborted})
	case k == evDrop && b != nil && b.owner == ev.conn:
		b.owner = nil // the decision is its coordinator's alone
	case k == evStatus:
		o, ok := t.outcomes[id]
		if !ok && b != nil {
			o.status = outcomePending
		}
		a.out = o
	case k == evRecover && ev.ts == 0:
		t.set(id, &branch{since: ev.at}, branchRecovered)
	case k == evRecover:
		t.remember(id, txOutcome{status: outcomeCommitted, ts: ev.ts})
	case k == evScanned && !t.recovering():
		a.do = doFinish
	case k == evCommitted && ev.err != nil:
		a.err = ev.err
		t.end(id, txOutcome{status: outcomeAborted})
	case k == evVoted && ev.err == nil && b != nil && b.state == branchActive:
		b.since = ev.at
		t.set(id, b, branchPrepared)
	case k == evApplied && ev.err != nil && !errors.Is(ev.err, core.ErrTxDone):
		a.err = ev.err
		t.set(id, b, branchFailed)
	case k == evCommitted, k == evApplied, k == evResolved && ev.err == nil:
		o := txOutcome{status: outcomeCommitted, ts: ev.ts}
		if ev.ts == 0 {
			o = txOutcome{status: outcomeAborted}
		}
		if k != evResolved || t.count[branchRecovered] > 1 {
			t.end(id, o)
			break
		}
		// The last recovered branch stays, keeping the gate shut, until
		// FinishRecovery has replayed the log.
		a.do = doFinish
		t.remember(id, o)
	case k == evResolved, k == evFinished:
		a.err = ev.err
		if k == evFinished && ev.err == nil && b != nil {
			t.end(id, txOutcome{})
		}
	}
	return a
}

// set puts b, as branch id, in state st.
func (t *branchTable) set(id histories.TxID, b *branch, st branchState) {
	if t.live[id] == b {
		t.count[b.state]--
	}
	b.state = st
	t.count[st]++
	t.live[id] = b
}

// end forgets branch id, remembering o unless its status is unknown.
func (t *branchTable) end(id histories.TxID, o txOutcome) {
	if b := t.live[id]; b != nil {
		t.count[b.state]--
		delete(t.live, id)
	}
	if o.status != outcomeUnknown {
		t.remember(id, o)
	}
}

// remember records a completion in the bounded outcome ring.
func (t *branchTable) remember(id histories.TxID, o txOutcome) {
	if _, ok := t.outcomes[id]; !ok {
		t.order = append(t.order, id)
		if len(t.order) > outcomeCap {
			delete(t.outcomes, t.order[0])
			t.order = t.order[1:]
		}
	}
	t.outcomes[id] = o
}
