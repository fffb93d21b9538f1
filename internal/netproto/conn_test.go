package netproto

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
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
// is owed or after one failed, that each decision's reply is acknowledged
// or redelivered, and that the breaker is told once per exchange that
// reached the wire.
func TestConnRules(t *testing.T) {
	// Deepening one event at a time reports a shortest sequence that
	// breaks a rule.
	n := 0
	for depth := 1; depth <= connDepth; depth++ {
		m := &connModel{a: action{done: true}}
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
// the decision's reply (≈ 250 000 sequences, 0.3 s; 1.5 s under -race).
const connDepth = 14

// errReply is the error reply the model's shard sends.
var errReply = errors.New("error reply")

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
	trace  []string
}

func (m *connModel) clone() *connModel {
	c := *m
	c.st.owed = slices.Clone(m.st.owed)
	c.wire = slices.Clone(m.wire)
	c.trace = slices.Clone(m.trace)
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
			return []input{
				{name: "reply", ev: event{kind: evRead}},
				{name: "error reply", ev: event{kind: evRead, err: errReply}},
				{name: "broken", ev: event{kind: evBroken, err: ErrUnavailable}},
			}
		}
		return []input{
			{name: "wrote", ev: event{kind: evWrote}},
			{name: "broken", ev: event{kind: evBroken, err: ErrUnavailable}},
		}
	}
	start := func(name string, typ byte, wb bool) input {
		return input{name: name, ev: event{kind: evStart, typ: typ, wb: wb, tx: "T", ts: 1}}
	}
	if !m.pinned {
		out := []input{
			{name: "pin", pin: true},
			start("ping", msgPing, false),
			start("redeliver", msgDecide, false),
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
	case evRead:
		if len(m.wire) == 0 {
			return fmt.Errorf("read with no reply on the wire")
		}
		got := m.wire[0]
		m.wire = m.wire[1:]
		if owed := len(m.st.owed) > 0; owed != (got != response) || owed && m.st.owed[0].decision != (got == owedDecision) {
			return fmt.Errorf("read a %c reply as the connection's owed %d", got, len(m.st.owed))
		}
		if got == owedCall && ev.err != nil {
			m.doomed = true
		}
		a := m.st.step(ev)
		if got == owedDecision && (a.acked == a.redeliver || a.redeliver != (ev.err != nil)) {
			return fmt.Errorf("a decision's reply neither acknowledged nor redelivered")
		}
		if got != owedDecision && (a.acked || a.redeliver) {
			return fmt.Errorf("a %c reply taken for a decision's", got)
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
	case m.wb && m.typ == msgDecide:
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
