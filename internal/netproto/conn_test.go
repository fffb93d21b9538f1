package netproto

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"
	"time"

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
//     still owes, buffered or sent;
//   - every write has a fresh deadline, armed in its own action;
//   - a buffered frame is on the wire before any read on its connection;
//   - the first exchange after a buffered commit decision flushes it in its
//     first action, unless it is a write-behind call, whose frame waits
//     behind it; the sweep flushes it, pinned connection or pooled, and
//     reads only a pooled connection's replies: a pinned one's stay owed
//     to its transaction, which keeps the connection.
//
// It also checks that a commit's frame never goes out while a call's reply
// is owed or after one failed, and that the breaker is told once per
// exchange that reached the wire: a buffered decision's by the exchange
// that flushed it.  Beside the connection it keeps the client's outbox as
// checkout and finish change it, and checks that a decision — commit or
// abort, buffered or flushed — leaves the outbox only on its
// acknowledgement or ErrTxDone, that each acknowledgement is reported
// once, and that what a closed connection owed, a buffered decision's
// included, or the shard refused, is due for the drain.  A buffered
// decision leaves the buffer by the next exchange's flush, by the sweep's,
// or with the connection when the transport breaks.  The deepest walk
// also renders each step it takes, and the rows must match connrules.txt.
func TestConnRules(t *testing.T) {
	// Deepening one event at a time reports a shortest sequence that
	// breaks a rule.
	start := time.Now()
	n, rows := 0, map[string]bool{}
	for depth := 1; depth <= connDepth; depth++ {
		m := &connModel{a: action{done: true}, out: outbox{}, open: map[string]bool{}, seen: map[string]int{}}
		if depth == connDepth {
			m.rows = rows
		}
		if err := m.walk(depth); err != nil {
			t.Fatal(err)
		}
		n = len(m.seen)
	}
	t.Logf("%d states within %d events, in %v", n, connDepth, time.Since(start).Round(time.Millisecond))
	if n < 2000 {
		t.Fatalf("reached only %d states; the walk looks truncated", n)
	}
	var rs [][]string
	for _, r := range slices.Sorted(maps.Keys(rows)) {
		rs = append(rs, strings.Split(r, "\x00"))
	}
	// Merge the sticky state, the owed replies and pinned, in that order.
	rs = mergeRules(rs, []int{4, 3, 1}, func(col int, _ []string) []string { return connDomains[col] })
	checkRulesFile(t, connRulesFile, connLegend, rs)
}

// connRulesFile is connState.step as the walk takes it: one line per class
// of steps from the states TestConnRules reaches, in the terms of
// connModel.step.
const connRulesFile = "connrules.txt"

const connLegend = `# connState.step (conn.go) on every step TestConnRules takes, rendered by that test.
# Inputs: the exchange's request; pinned while a transaction holds the connection; the exchange's progress
# (wb: its reply is owed; sent: its frame is out, unanswered; wired: it touched the wire); the owed replies
# (c: a call's first, d: a decision's; +c: more, a call's among them; +d: more, decisions' only); the
# sticky failed call and buffered decision; the event.  a|b: either value; *: any.
# Outputs: the action; what changed in progress (=: nothing, -: the exchange is done), in the owed
# replies (pop: the first was read; +c, +d: one more is owed) and in the sticky state.
# request pinned progress owed sticky event -> action progress' owed' sticky'`

// connDomains is the values of the connrules.txt columns merged into "*".
var connDomains = map[int][]string{
	1: {"-", "pinned"},
	3: {"-", "c", "d", "c+c", "c+d", "d+c", "d+d"},
	4: {"-", "failed", "buffered", "failed,buffered"},
}

// connDepth is the number of events per sequence: deep enough for two
// write-behind calls, a prepare behind them, its buffered decision, the
// sweep that flushes it and reads its reply, and a next transaction
// (8 493 states, ≈ 0.6 s; ≈ 4 s under -race).
const connDepth = 16

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
	// The exchange under way: its request's type, whether its reply is
	// owed, whether a call goes write-behind, whether it has touched the
	// wire, and whether its first action is still to come while a
	// decision is buffered.
	typ    byte
	wb     bool
	behind bool
	wired  bool
	flush  bool
	// buf is the replies owed to the frames in the client's buffer, wire
	// what the shard owes for the frames flushed, in order; doomed is set
	// once an owed call's error reply is read, until the transaction ends.
	buf    []byte
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
	// seen maps each state the walk reached to the most events it had
	// left there: a state reached again with no more left is not walked
	// again.
	seen map[string]int
	// rows, when set, collects every step taken as a connrules.txt row,
	// its columns joined by NUL.
	rows map[string]bool
}

func (m *connModel) clone() *connModel {
	c := *m
	c.st.owed = slices.Clone(m.st.owed)
	c.st.answered = slices.Clone(m.st.answered)
	c.buf = slices.Clone(m.buf)
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

// key is m's state, its trace and the walk's bookkeeping aside.
func (m *connModel) key() string {
	out := slices.Sorted(maps.Keys(m.out))
	for i, tx := range out {
		out[i] = fmt.Sprintf("%s:%d:%v", tx, m.out[tx].typ, m.out[tx].on != nil)
	}
	return fmt.Sprintf("%+v|%+v|%d %v %v %v %v|%q|%q|%v %v %v|%v|%v", m.st, m.a, m.typ, m.wb, m.behind, m.wired, m.flush,
		m.buf, m.wire, m.doomed, m.pinned, m.closed, out, slices.Sorted(maps.Keys(m.open)))
}

// walk visits every extension of m by up to depth events and returns the
// first broken rule.
func (m *connModel) walk(depth int) error {
	k := m.key()
	if left, ok := m.seen[k]; ok && left >= depth {
		return nil
	}
	m.seen[k] = depth
	if depth == 0 || m.closed {
		return nil
	}
	for _, next := range m.successors() {
		c := m.clone()
		if err := c.apply(next); err != nil {
			return fmt.Errorf("%v\n  after %s", err, strings.Join(c.trace, ", "))
		}
		if err := c.walk(depth - 1); err != nil {
			return err
		}
	}
	return nil
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
	decide := start("decide", msgDecide, true)
	decide.ev.lazy = true
	var sweep []input
	if m.st.buffered {
		sweep = append(sweep, input{name: "sweep", ev: event{kind: evStart}})
	}
	return append(sweep, []input{
		start("call", msgCall, false),
		start("write-behind", msgCall, true),
		start("commit", msgCommit, false),
		start("prepare", msgPrepare, false),
		start("abort", msgAbort, false),
		decide,
		start("resent decide", msgDecide, true),
		start("abort decision", msgAbort, true),
	}...)
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
		m.behind = ev.wb && ev.typ == msgCall && len(m.st.owed) < maxOwed
		m.flush = slices.Contains(m.buf, owedDecision)
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
		a := m.step(ev)
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
	return m.check(m.step(ev))
}

// step feeds ev to the connection and, when the walk collects rows,
// records the step as a connrules.txt row.
func (m *connModel) step(ev event) action {
	if m.rows == nil {
		return m.st.step(ev)
	}
	s := &m.st
	req, pinned, progress, evName := msgNames[s.typ], s.pinned, exchangeWords(s), []string{"start", "wrote", "read", "broken"}[ev.kind]
	if ev.kind == evStart {
		req, pinned, progress = msgNames[ev.typ], ev.pinned, "-"
		evName = words(true, evName, ev.wb, "wb", ev.lazy, "lazy")
	}
	if ev.err != nil {
		evName += "," + errNames[ev.err]
	}
	owed, sticky := slices.Clone(s.owed), stickyWords(s)
	in := []string{req, words(pinned, "pinned"), progress, owedWords(owed), sticky, evName}
	a := s.step(ev)
	act := words(a.arm, "arm", a.write, "write", a.abort, "abort", a.flush, "flush", a.read, "read", a.acked, "acked",
		a.done, "done", a.err != nil, "error="+errNames[a.err], a.observe && a.ok, "observe-ok", a.observe && !a.ok, "observe-broken",
		a.lost, "lost", a.done, []string{"keep", "pool", "drop"}[a.place])
	after := exchangeWords(s)
	switch {
	case a.done:
		after = "-"
	case after == progress:
		after = "="
	}
	// step takes replies off the front of owed and appends new ones.
	popped := 0
	for !slices.Equal(owed[popped:], s.owed[:min(len(s.owed), len(owed)-popped)]) {
		popped++
	}
	delta := strings.Repeat("pop", popped)
	for _, tx := range s.owed[len(owed)-popped:] {
		delta += "+" + owedKind(tx)
	}
	if sticky == stickyWords(s) {
		sticky = "="
	} else {
		sticky = stickyWords(s)
	}
	m.rows[strings.Join(append(in, strings.Join([]string{act, after, cmp.Or(delta, "="), sticky}, " ")), "\x00")] = true
	return a
}

// exchangeWords names the progress of s's exchange: whether its reply is
// owed, its frame went out with its reply unread, and it reached the wire.
func exchangeWords(s *connState) string {
	return words(s.wb, "wb", s.sent, "sent", s.wired, "wired")
}

// stickyWords names what outlasts s's exchange: a failed call's reply and
// a buffered decision.
func stickyWords(s *connState) string {
	return words(s.failed != nil, "failed", s.buffered, "buffered")
}

// owedKind is c for an owed call's reply, d for a decision's.
func owedKind(tx string) string {
	if tx == "" {
		return "c"
	}
	return "d"
}

// owedWords names owed by its first reply's kind and, when more follow,
// "+c" if a call's is among them, else "+d".
func owedWords(owed []string) string {
	switch {
	case len(owed) == 0:
		return "-"
	case len(owed) == 1:
		return owedKind(owed[0])
	case slices.Contains(owed[1:], ""):
		return owedKind(owed[0]) + "+c"
	}
	return owedKind(owed[0]) + "+d"
}

// words joins the names whose flags are set with ",", or is "-".
func words(pairs ...any) string {
	var w []string
	for i := 0; i < len(pairs); i += 2 {
		if pairs[i].(bool) {
			w = append(w, pairs[i+1].(string))
		}
	}
	if len(w) == 0 {
		return "-"
	}
	return strings.Join(w, ",")
}

// errNames names the model's errors.
var errNames = map[error]string{nil: "-", errReply: "reply", errGone: "gone", ErrUnavailable: "transport"}

// written puts the reply to the last action's frame in the buffer, and a
// flush puts the buffer on the wire.
func (m *connModel) written() {
	switch {
	case !m.a.write:
	case m.wb && m.typ != msgCall && !m.a.abort:
		m.buf = append(m.buf, owedDecision)
	case m.behind:
		m.buf = append(m.buf, owedCall)
	default:
		m.buf = append(m.buf, response)
	}
	if m.a.flush {
		m.wire = append(m.wire, m.buf...)
		m.buf = m.buf[:0]
	}
}

// check checks the action a step returned and records it.
func (m *connModel) check(a action) error {
	m.a = a
	if m.flush && !a.flush && !m.behind {
		return fmt.Errorf("the first action after a buffered decision does not flush it")
	}
	m.flush = false
	if m.typ == 0 && m.pinned && (a.read || a.done && a.place == pool) {
		return fmt.Errorf("the sweep of a pinned connection read its replies or took it from its transaction")
	}
	if a.write || a.flush {
		if !a.arm {
			return fmt.Errorf("a write under a deadline armed before it")
		}
		if slices.Contains(m.wire, response) {
			return fmt.Errorf("a frame written before the last response was read")
		}
		if a.write && !a.abort && m.typ == msgCommit && (slices.Contains(m.wire, owedCall) || slices.Contains(m.buf, owedCall)) {
			return fmt.Errorf("a commit written while a call's reply is owed")
		}
		if a.write && !a.abort && m.typ == msgCommit && m.doomed {
			return fmt.Errorf("a commit written after an owed call failed")
		}
	}
	if a.read {
		// The write, the flush and the read are one outcome: the frames
		// went out.
		m.written()
		if len(m.buf) > 0 {
			return fmt.Errorf("a reply read while %q is buffered", m.buf)
		}
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
		return fmt.Errorf("a %s succeeded after an owed call failed", msgNames[m.typ])
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
	if slices.Contains(m.wire, response) || slices.Contains(m.buf, response) {
		return fmt.Errorf("exchange ended with its response unread")
	}
	if len(m.st.owed) != len(m.wire)+len(m.buf) {
		return fmt.Errorf("the connection owes %d replies, the shard %q and the buffer %q", len(m.st.owed), m.wire, m.buf)
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

// msgNames names the model's request types; 0 is the sweep.
var msgNames = map[byte]string{0: "sweep", msgPing: "ping", msgCall: "call", msgCommit: "commit", msgPrepare: "prepare", msgAbort: "abort", msgDecide: "decide"}
