package netproto

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"hybridcc/internal/core"
)

// TestConnRules enumerates every sequence of requests and transport
// outcomes on one connection, up to connDepth events, the way
// internal/explore walks lockmachine, and checks connState.step's actions
// at every step:
//
//   - a connection is never pooled while it owes a call's reply or has
//     failed;
//   - an owed error surfaces exactly once: once an owed call's reply is an
//     error, no later call, commit or prepare of the transaction succeeds,
//     and the connection's next transaction does not see it;
//   - every started reply is read, or the connection is closed: each read
//     is the reply the shard sends next, a response is read before the
//     exchange ends, and the connection's owed list is what the shard
//     still owes;
//   - every write has a fresh deadline, armed in its own action.
//
// It also checks that a commit's frame never goes out while a call's reply
// is owed or after one failed, and that the breaker is told once per
// exchange that reached the wire.  Beside the connection it keeps the
// client's outbox as checkout and finish change it, and checks that a
// decision — commit or abort — leaves the outbox only on its
// acknowledgement or ErrTxDone, that each acknowledgement is reported
// once, and that what a closed connection owed, or the shard refused, is
// due for the drain.
func TestConnRules(t *testing.T) {
	// Deepening one event at a time reports a shortest sequence that
	// breaks a rule.
	n := 0
	for depth := 1; depth <= connDepth; depth++ {
		m := &connModel{a: action{done: true}, out: outbox{}, open: map[string]bool{}}
		var err error
		if n, err = m.walk(depth); err != nil {
			t.Fatal(err)
		}
	}
	if n < 10000 {
		t.Fatalf("explored only %d sequences; the walk looks truncated", n)
	}
}

// connDepth is the number of events per sequence: deep enough for two
// write-behind calls, a prepare behind them, its decision and a sweep of
// the decision's reply (≈ 300 000 sequences, 0.9 s; 3 s under -race).
const connDepth = 14

// errReply is the error reply the model's shard sends; errGone, the one
// for a branch it no longer knows.
var (
	errReply = errors.New("error reply")
	errGone  = fmt.Errorf("%w: no branch", core.ErrTxDone)
)

// The replies the model's shard owes, in wire order.
const (
	owedCall     = 'c'
	owedDecision = 'd'
	response     = 'r'
)

// connModel is one connection and the shard at its other end.
type connModel struct {
	st connState
	a  action // the last action
	// The exchange under way: its request's type, whether it goes
	// write-behind, and whether it has touched the wire.
	typ   byte
	wb    bool
	wired bool
	// wire is what the shard owes, in order; doomed is set once an owed
	// call's error reply is read, until the transaction ends.
	wire   []byte
	doomed bool
	// pinned is set while a transaction holds the connection.
	pinned bool
	closed bool
	// out is the client's outbox; open, the decisions started and neither
	// acknowledged nor answered ErrTxDone; decisions numbers them.
	out       outbox
	open      map[string]bool
	decisions int
	trace     []string
}

func (m *connModel) clone() *connModel {
	c := *m
	c.st.owed = slices.Clone(m.st.owed)
	c.st.answered = slices.Clone(m.st.answered)
	c.wire = slices.Clone(m.wire)
	c.trace = slices.Clone(m.trace)
	c.open = maps.Clone(m.open)
	c.out = outbox{}
	for tx, e := range m.out {
		if e.on == &m.st {
			e.on = &c.st
		}
		c.out[tx] = e
	}
	return &c
}

// walk visits every extension of m by up to depth events and returns the
// number of sequences visited, or the first broken rule.
func (m *connModel) walk(depth int) (int, error) {
	if depth == 0 || m.closed {
		return 1, nil
	}
	n := 1
	for _, next := range m.successors() {
		c := m.clone()
		if err := c.apply(next); err != nil {
			return n, fmt.Errorf("%v\n  after %s", err, strings.Join(c.trace, ", "))
		}
		k, err := c.walk(depth - 1)
		n += k
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// input is one model step: a request to start, or a transport outcome.
type input struct {
	name string
	ev   event
	pin  bool
}

// successors lists what can happen next: the outcomes of the action under
// way, or, between exchanges, every request the connection can carry.
func (m *connModel) successors() []input {
	if !m.a.done {
		if m.a.read {
			out := []input{
				{name: "reply", ev: event{kind: evRead}},
				{name: "error reply", ev: event{kind: evRead, err: errReply}},
				{name: "broken", ev: event{kind: evBroken, err: ErrUnavailable}},
			}
			if len(m.wire) > 0 && m.wire[0] == owedDecision {
				out = append(out, input{name: "gone reply", ev: event{kind: evRead, err: errGone}})
			}
			return out
		}
		return []input{
			{name: "wrote", ev: event{kind: evWrote}},
			{name: "broken", ev: event{kind: evBroken, err: ErrUnavailable}},
		}
	}
	start := func(name string, typ byte, wb bool) input {
		return input{name: name, ev: event{kind: evStart, typ: typ, wb: wb, tx: "T"}}
	}
	if !m.pinned {
		out := []input{
			{name: "pin", pin: true},
			start("ping", msgPing, false),
		}
		if len(m.st.owed) > 0 {
			out = append(out, input{name: "sweep", ev: event{kind: evStart}})
		}
		return out
	}
	return []input{
		start("call", msgCall, false),
		start("write-behind", msgCall, true),
		start("commit", msgCommit, false),
		start("prepare", msgPrepare, false),
		start("abort", msgAbort, false),
		start("decide", msgDecide, true),
		start("abort decision", msgAbort, true),
	}
}

// apply feeds in to step and checks the action it returns.
func (m *connModel) apply(in input) error {
	m.trace = append(m.trace, in.name)
	if in.pin {
		m.pinned = true
		return nil
	}
	ev := in.ev
	switch ev.kind {
	case evStart:
		ev.pinned = m.pinned
		m.typ, m.wb, m.wired = ev.typ, ev.wb, false
		if ev.wb && ev.typ != msgCall {
			// checkout puts a decision in the outbox on its connection.
			m.decisions++
			ev.tx = fmt.Sprintf("D%d", m.decisions)
			m.out[ev.tx] = outEntry{typ: ev.typ, on: &m.st}
			m.open[ev.tx] = true
		}
	case evRead:
		if len(m.wire) == 0 {
			return fmt.Errorf("read with no reply on the wire")
		}
		got := m.wire[0]
		m.wire = m.wire[1:]
		if owed := len(m.st.owed) > 0; owed != (got != response) || owed && (m.st.owed[0] != "") != (got == owedDecision) {
			return fmt.Errorf("read a %c reply as the connection's owed %d", got, len(m.st.owed))
		}
		if got == owedCall && ev.err != nil {
			m.doomed = true
		}
		tx, answered := "", len(m.st.answered)
		if got == owedDecision {
			tx = m.st.owed[0]
		}
		a := m.st.step(ev)
		switch {
		case got != owedDecision && (a.acked || len(m.st.answered) != answered):
			return fmt.Errorf("a %c reply taken for a decision's", got)
		case got == owedDecision && (a.acked != (ev.err == nil) || !slices.Equal(m.st.answered[answered:], []answer{{tx, ev.err}})):
			return fmt.Errorf("decision %s's reply not answered once, acknowledged=%v", tx, a.acked)
		case got == owedDecision && (ev.err == nil || ev.err == errGone):
			delete(m.open, tx)
		}
		return m.check(a)
	case evWrote:
		m.written()
	}
	return m.check(m.st.step(ev))
}

// written puts the replies to the last action's frame on the wire.
func (m *connModel) written() {
	switch {
	case !m.a.write:
	case m.wb && m.typ != msgCall:
		m.wire = append(m.wire, owedDecision)
	case m.wb && m.typ == msgCall && !m.a.flush:
		m.wire = append(m.wire, owedCall)
	default:
		m.wire = append(m.wire, response)
	}
}

// check checks the action a step returned and records it.
func (m *connModel) check(a action) error {
	m.a = a
	if a.write || a.flush {
		if !a.arm {
			return fmt.Errorf("a write under a deadline armed before it")
		}
		if slices.Contains(m.wire, response) {
			return fmt.Errorf("a frame written before the last response was read")
		}
		if a.write && !a.abort && m.typ == msgCommit && slices.Contains(m.wire, owedCall) {
			return fmt.Errorf("a commit written while a call's reply is owed")
		}
		if a.write && !a.abort && m.typ == msgCommit && m.doomed {
			return fmt.Errorf("a commit written after an owed call failed")
		}
	}
	if a.read && a.write {
		// The write and the read are one outcome: the write went out.
		m.written()
	}
	if a.flush || a.read {
		m.wired = true
	}
	if !a.done {
		return nil
	}
	if a.place != keep {
		m.pinned = false
		// finish settles the outbox.
		m.out.settle(&m.st, a.place == drop)
		if err := m.checkOutbox(a.place == drop); err != nil {
			return err
		}
	}
	broken := !a.ok
	if a.observe != (m.wired || broken) {
		return fmt.Errorf("breaker observe=%v for an exchange that touched the wire=%v", a.observe, m.wired || broken)
	}
	if m.doomed && a.err == nil && (m.typ == msgCall || m.typ == msgCommit || m.typ == msgPrepare) {
		return fmt.Errorf("a %s succeeded after an owed call failed", msgName(m.typ))
	}
	switch a.place {
	case drop:
		m.closed = true
		return nil
	case pool:
		if broken || m.st.failed != nil || slices.Contains(m.wire, owedCall) {
			return fmt.Errorf("pooled broken=%v failed=%v owing %q", broken, m.st.failed, m.wire)
		}
		m.doomed = false
	}
	if broken {
		return fmt.Errorf("a broken connection kept")
	}
	if slices.Contains(m.wire, response) {
		return fmt.Errorf("exchange ended with its response unread")
	}
	if len(m.st.owed) != len(m.wire) {
		return fmt.Errorf("the connection owes %d replies, the shard %q", len(m.st.owed), m.wire)
	}
	return nil
}

// checkOutbox checks the outbox just after finish settled it: every open
// decision is in it, and due when its connection was closed; nothing else
// is, and a decision waits on the connection only while the connection
// owes its reply.
func (m *connModel) checkOutbox(closed bool) error {
	for tx := range m.open {
		e, ok := m.out[tx]
		switch {
		case !ok:
			return fmt.Errorf("decision %s left the outbox unacknowledged", tx)
		case closed && e.on != nil:
			return fmt.Errorf("decision %s owed on a closed connection is not due", tx)
		}
	}
	for tx, e := range m.out {
		switch {
		case !m.open[tx]:
			return fmt.Errorf("decision %s still in the outbox after its acknowledgement or ErrTxDone", tx)
		case e.on != nil && !slices.Contains(m.st.owed, tx):
			return fmt.Errorf("refused decision %s is not due", tx)
		}
	}
	return nil
}

// msgName names a request type in a failure.
func msgName(typ byte) string {
	switch typ {
	case msgCall:
		return "call"
	case msgCommit:
		return "commit"
	}
	return "prepare"
}
