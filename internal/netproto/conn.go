package netproto

import "slices"

// The rules of one ShardClient connection, as one transition function.  A
// connection carries one exchange at a time: a request, the replies owed
// ahead of its response, and the response.  connState.step decides
// everything an exchange does — when to arm a deadline, what to write and
// flush, whose reply each read is, what the caller and the circuit breaker
// are told, and whether the connection stays with its transaction, goes
// back to the pool or is closed.  step does no I/O: ShardClient.run does
// what each action says and reports what happened as the next event, and
// TestConnRules enumerates step's event sequences.  The rules:
//
//   - Every write and flush is bounded by a deadline armed in the same
//     action.
//   - A write-behind call's reply and a commit decision's are owed: they
//     are read, in wire order, before the next response.  A commit reads
//     the owed call replies before its frame goes out, because a commit
//     cannot be overruled; a prepare and an abort go out behind them.
//   - An owed call's error reply fails the rest of its transaction: a call
//     or write-behind call returns it unsent, a commit sends an abort in
//     its place, and a prepare's vote is a no.  An abort ignores it.
//   - A connection whose transport failed is closed, and so is one whose
//     exchange ends its transaction while a call's reply is owed; the
//     decisions it owes are redelivered.  Any other goes back to the pool
//     when its transaction ends, the failure cleared, owing at most
//     decisions' replies, for its next user or the sweep to read.
//   - An exchange that reached the wire is observed by the breaker once.

// maxOwed bounds a connection's owed replies.
const maxOwed = 64

// connState is one connection's protocol state.
type connState struct {
	// owed lists the replies unread, in wire order.
	owed []owedReply
	// failed is the first error an owed call's reply carried.
	failed error

	// The exchange under way: its request's type (0 to read the owed
	// replies only), the decision it sends, the decision whose reply was
	// read last, whether it goes write-behind, whether a transaction holds
	// the connection, whether its frame went out and its response is
	// unread, whether it has flushed or read, and whether the transport
	// failed.
	typ    byte
	dec    owedReply
	last   owedReply
	wb     bool
	pinned bool
	sent   bool
	wired  bool
	broken bool
}

// owedReply is an unread reply: a write-behind call's, or a decision's to
// commit tx at ts.
type owedReply struct {
	decision bool
	tx       string
	ts       uint64
}

// evKind is what happened.
type evKind uint8

const (
	evStart  evKind = iota // an exchange of a typ request for tx begins
	evWrote                // the action's writes went out
	evRead                 // the action read a reply; err is its error reply
	evBroken               // the transport failed; err says how
)

// event is one input of step.  wb marks a request whose reply is owed: a
// write-behind call, or a commit decision on its first delivery; pinned, a
// request of the transaction that holds the connection.
type event struct {
	kind   evKind
	typ    byte
	wb     bool
	pinned bool
	tx     string
	ts     uint64
	err    error
}

// place is where a connection goes when its exchange is done.
type place uint8

const (
	keep place = iota // stays with its transaction
	pool              // goes back to the pool
	drop              // is closed
)

// action is what to do next, in order: arm a fresh deadline, write the
// request's frame (an abort for its transaction in its place when abort is
// set), flush, read one reply, each when set.  When the reply read was a
// decision's, connState.last is that decision, acknowledged or to be
// redelivered.  When done is set the exchange is over.
type action struct {
	arm, write, abort, flush, read bool

	acked, redeliver bool

	done bool
	// err is what the caller is told: the sticky failure, else the
	// transport's error, else the response's error reply.
	err error
	// observe tells the breaker ok: whether the transport held.
	observe, ok bool
	// lost is set when the request's own frame went out before the
	// transport failed: its fate is unknown.
	lost  bool
	place place
}

// owesCall reports whether a write-behind call's reply is owed.
func (s *connState) owesCall() bool {
	return slices.ContainsFunc(s.owed, func(r owedReply) bool { return !r.decision })
}

// step applies ev and returns what to do next.
func (s *connState) step(ev event) action {
	switch ev.kind {
	case evStart:
		s.typ, s.wb, s.pinned, s.sent, s.wired, s.broken = ev.typ, ev.wb, ev.pinned, false, false, false
		s.dec = owedReply{decision: true, tx: ev.tx, ts: ev.ts}
		return s.next()
	case evWrote:
		if s.wb {
			return s.done(nil)
		}
		return s.next()
	case evRead:
		if len(s.owed) == 0 {
			s.sent = false
			return s.done(ev.err)
		}
		r := s.owed[0]
		s.owed = s.owed[:copy(s.owed, s.owed[1:])]
		if !r.decision && ev.err != nil && s.failed == nil {
			s.failed = ev.err
		}
		a := s.next()
		if r.decision {
			s.last, a.acked, a.redeliver = r, ev.err == nil, ev.err != nil
		}
		return a
	}
	s.broken = true
	return s.done(ev.err)
}

// next is the rest of the exchange under way.
func (s *connState) next() action {
	switch typ := s.typ; {
	case s.sent || len(s.owed) > 0 && (typ == 0 || s.wired):
		// A response, the owed replies of a sweep, or a commit's drain.
		s.wired = true
		return action{read: true}
	case typ == 0:
		return s.done(nil)
	case s.failed != nil && typ == msgCommit:
		s.sent, s.wired = true, true
		return action{arm: true, write: true, abort: true, flush: true}
	case s.failed != nil && failing(typ):
		return s.done(nil)
	case typ == msgCommit && s.owesCall():
		s.wired = true
		return action{arm: true, flush: true, read: true}
	case s.wb && typ == msgDecide:
		s.owed = append(s.owed, s.dec)
		s.wired = true
		return action{arm: true, write: true, flush: true}
	case s.wb && len(s.owed) < maxOwed:
		s.owed = append(s.owed, owedReply{})
		return action{arm: true, write: true}
	}
	s.wb, s.sent, s.wired = false, true, true
	return action{arm: true, write: true, flush: true}
}

// done ends the exchange under way, with err as the response's error or
// the transport's.
func (s *connState) done(err error) action {
	a := action{done: true, err: err, observe: s.wired || s.broken, ok: !s.broken}
	if s.failed != nil && failing(s.typ) {
		a.err = s.failed
	}
	a.lost = s.broken && s.sent && s.failed == nil
	switch {
	case s.pinned && !s.broken && !ends(s.typ, a.err):
		return a
	case s.broken || s.owesCall():
		a.place = drop
	default:
		a.place = pool
		s.failed = nil
	}
	return a
}

// failing reports whether an owed call's failure fails a typ request: a
// call, a prepare or a commit of the transaction.
func failing(typ byte) bool {
	return typ == msgCall || typ == msgPrepare || typ == msgCommit
}

// ends reports whether a typ request, answered with err, ends its
// transaction.
func ends(typ byte, err error) bool {
	switch typ {
	case 0, msgCommit, msgAbort, msgReadComplete, msgDecide:
		return true
	}
	return typ == msgReadBegin && err != nil
}
