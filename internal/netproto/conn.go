package netproto

import (
	"errors"
	"slices"

	"hybridcc/internal/core"
)

// The rules of one ShardClient connection, as one transition function, and
// the client's outbox of decisions.  A connection carries one exchange at a
// time: a request, the replies owed ahead of its response, and the
// response.  connState.step decides everything an exchange does — when to
// arm a deadline, what to write and flush, whose reply each read is, what
// the caller and the circuit breaker are told, and whether the connection
// stays with its transaction, goes back to the pool or is closed.  step
// does no I/O: ShardClient.run does what each action says and reports what
// happened as the next event, and TestConnRules enumerates step's event
// sequences beside the outbox.  The rules:
//
//   - Every write and flush is bounded by a deadline armed in the same
//     action.
//   - A write-behind call's reply and a decision's are owed from the write
//     and read, in wire order, before the next response.  A commit
//     decision's exchange ends at its write; an abort decision's reads its
//     reply.  A commit reads the owed call replies before its frame goes
//     out, because a commit cannot be overruled; a prepare and an abort go
//     out behind them.
//   - A commit decision on its transaction's connection is written, not
//     flushed, to ride ahead of the connection's next frame: the next
//     exchange but a write-behind call flushes it, or else the sweep,
//     which reads a pooled connection's replies only.  No reply is read
//     while a frame is buffered.
//   - An owed call's error reply fails the rest of its transaction: a call
//     or write-behind call returns it unsent, a commit sends an abort in
//     its place, and a prepare's vote is a no.  An abort ignores it.
//   - A connection whose transport failed is closed, and so is one whose
//     exchange ends its transaction while a call's reply is owed; the
//     decisions it owes fall due in the outbox.  Any other goes back to the
//     pool when its transaction ends, the failure cleared, owing at most
//     decisions' replies, for its next user or the sweep to read.
//   - An exchange that reached the wire is observed by the breaker once.

// maxOwed bounds a connection's owed replies.
const maxOwed = 64

// connState is one connection's protocol state.
type connState struct {
	// owed lists the replies unread, in wire order: a decision's
	// transaction, or "" for a write-behind call's reply.
	owed []string
	// failed is the first error an owed call's reply carried.
	failed error
	// buffered is set while a commit decision's frame waits unflushed.
	buffered bool
	// answered lists the decisions whose replies were read, for the outbox.
	answered []answer

	// The exchange under way: its request's type (0 to read the owed
	// replies only) and transaction, whether its reply is owed, whether a
	// transaction holds the connection, whether its frame went out and its
	// reply is unread, whether it has flushed or read, and whether the
	// transport failed.
	typ    byte
	tx     string
	wb     bool
	pinned bool
	sent   bool
	wired  bool
	broken bool
}

// answer is a decision's reply: err is nil for an acknowledgement.
type answer struct {
	tx  string
	err error
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
// write-behind call, or a decision (msgDecide or msgAbort); lazy, a commit
// decision left buffered; pinned, a request of the connection's holder.
type event struct {
	kind   evKind
	typ    byte
	wb     bool
	lazy   bool
	pinned bool
	tx     string
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
// set), flush, read one reply, each when set.  acked is set when the reply
// read acknowledged the decision last in connState.answered.  When done is
// set the exchange is over.
type action struct {
	arm, write, abort, flush, read bool

	acked bool

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
func (s *connState) owesCall() bool { return slices.Contains(s.owed, "") }

// step applies ev and returns what to do next.
func (s *connState) step(ev event) action {
	switch ev.kind {
	case evStart:
		s.typ, s.tx, s.wb, s.pinned, s.sent, s.wired, s.broken = ev.typ, ev.tx, ev.wb, ev.pinned, false, false, false
		buffered := s.buffered
		a := s.next()
		// The first exchange after a buffered decision flushes it, but a
		// write-behind call; a lazy commit decision waits for the next.
		switch {
		case buffered && !a.done && !(s.wb && s.typ == msgCall):
			a.arm, a.flush = true, true
			s.buffered, s.wired = false, true
		case ev.lazy:
			a.flush, s.buffered, s.wired = false, true, false
		}
		return a
	case evWrote:
		if s.wb && !s.sent {
			return s.done(nil)
		}
		return s.next()
	case evRead:
		if len(s.owed) == 0 {
			s.sent = false
			return s.done(ev.err)
		}
		tx := s.owed[0]
		s.owed = s.owed[:copy(s.owed, s.owed[1:])]
		if tx == "" {
			if ev.err != nil && s.failed == nil {
				s.failed = ev.err
			}
			return s.next()
		}
		s.answered = append(s.answered, answer{tx: tx, err: ev.err})
		var a action
		if s.wb && s.sent && len(s.owed) == 0 {
			// An abort decision's own reply: its exchange's response.
			s.sent = false
			a = s.done(ev.err)
		} else {
			a = s.next()
		}
		a.acked = ev.err == nil
		return a
	}
	s.broken = true
	return s.done(ev.err)
}

// next is the rest of the exchange under way.
func (s *connState) next() action {
	switch typ := s.typ; {
	case typ == 0 && s.pinned:
		// The sweep of a pinned connection only flushes: the
		// transaction's replies stay owed.
		s.wb = true
		return action{}
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
	case s.wb && typ != msgCall:
		s.owed = append(s.owed, s.tx)
		s.sent, s.wired = typ == msgAbort, true
		return action{arm: true, write: true, flush: true}
	case s.wb && len(s.owed) < maxOwed:
		s.owed = append(s.owed, "")
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
	case msgCommit, msgAbort, msgReadComplete, msgDecide:
		return true
	}
	return typ == msgReadBegin && err != nil
}

// outbox is a shard client's decisions by transaction, changed under its
// mutex: each commit or abort decision joins it before its first write and
// leaves it only when its acknowledgement is read or the shard no longer
// knows the branch (ErrTxDone).
type outbox map[string]outEntry

// outEntry is a decision to commit at ts, or to abort when typ is msgAbort.
// on is the connection whose reply it awaits: nil while it is due, taken
// while a resend holds it.
type outEntry struct {
	typ byte
	ts  uint64
	on  *connState
}

var taken = new(connState)

// settle takes in what s answered and, when s is closed, what it owes: an
// acknowledged decision, or one whose branch is gone, leaves; any other
// falls due.  It reports whether any fell due.
func (o outbox) settle(s *connState, closed bool) (due bool) {
	for _, r := range s.answered {
		if e, ok := o[r.tx]; ok && e.on == s {
			if r.err == nil || errors.Is(r.err, core.ErrTxDone) {
				delete(o, r.tx)
				continue
			}
			e.on = nil
			o[r.tx], due = e, true
		}
	}
	s.answered = s.answered[:0]
	if closed {
		for _, tx := range s.owed {
			if e, ok := o[tx]; ok && e.on == s {
				e.on = nil
				o[tx], due = e, true
			}
		}
		s.owed = s.owed[:0]
	}
	return due
}
