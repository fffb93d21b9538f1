package netproto

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"hybridcc/internal/core"
	"hybridcc/internal/histories"
)

// TestBranchRules walks every sequence of requests, core-call results,
// connection drops and crash-and-restarts, up to branchDepth events, that
// three connections can send a shard about two update branches, T and U,
// and one read branch, R, and checks branchTable.step's actions at every
// step against a model of the core:
//
//  1. a prepared branch never ends without a decision: it stays in the
//     table until a commit decision applies or an abort decision aborts it;
//  2. a decision is applied once: no CommitAt, CommitAbove or ResolvePending
//     reaches a branch that committed or has one in flight, and a commit
//     decision is acknowledged only once it has applied;
//  3. a status probe never says committed for a branch that has not
//     committed (nor aborted for one that has not aborted);
//  4. a dropped connection aborts exactly its own unprepared branches;
//  5. the recovering gate opens exactly when the last recovered branch
//     resolves: calls, prepares and read begins are refused until then,
//     and FinishRecovery runs once, at that moment;
//  6. only a read branch's own connection reads through it or completes
//     it: another connection's activate, call or complete is refused;
//  7. a read branch's complete, or its connection's drop, finishes its
//     ReadTx exactly once, and a read begin naming a live read branch
//     begins no second one;
//  8. an id is never both a read and an update branch: an update request
//     naming a live read branch, and a read begin or complete naming a
//     live update branch, change nothing.
//
// The model plays a coordinator that keeps to its decisions: it decides
// commit only after a yes vote and never both ways.  Each unlocked core
// call (CommitAbove, Prepare, CommitAt) is in flight on its connection
// until a later event completes it, applied or failed, so every other
// request can come between.  A status probe changes nothing, so rule 3 is
// checked by probing both branches in every state reached.  Two sequences
// that reach the same state have the same futures, so the walk is
// breadth-first and expands each state once: the first failure it prints
// is a shortest sequence that breaks a rule.
func TestBranchRules(t *testing.T) {
	states, err := walkBranches(branchDepth)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d states", states)
	if states < 40000 {
		t.Fatalf("reached only %d states; the walk looks truncated", states)
	}
}

// branchDepth bounds the events per sequence.  Every state the model can
// reach is reached within 15 events (48 068 states; ≈ 1.2 s on 2 vCPU,
// ≈ 10 s under -race), so the walk ends with nothing left to expand; one
// that does not is reported truncated.
const branchDepth = 16

// nSlots is the number of connections: enough for a prepare in flight on
// one while a decision and its redelivery arrive on the others.
const nSlots = 3

var (
	branchIDs  = [2]histories.TxID{"T", "U"}
	readID     = histories.TxID("R")
	decidedTS  = [2]histories.Timestamp{5, 6} // each branch's commit decision
	fastPathTS = [2]histories.Timestamp{3, 4} // each branch's fast-path commit
	errLogged  = errors.New("log write failed")
)

// modelTx is the core's view of one branch, and the coordinator's.
type modelTx struct {
	// core is '-' never begun, 'a' active, 'p' prepared, 'c' committed at
	// ts, 'x' aborted, or 'f' decided but not logged (prepared in the log).
	core byte
	ts   histories.Timestamp
	// owner is the connection slot whose call began the branch, or -1.
	owner int
	// yes is set once a yes vote has been answered; decided is the
	// coordinator's decision: 0, 'c' or 'a'.
	yes     bool
	decided byte
	// recovered is set while the branch, prepared at a restart, is
	// unresolved.
	recovered bool
}

// modelRead is the core's view of the read branch R: live from a begin
// that ran until the ReadTx finishes, owned by a connection slot.
type modelRead struct {
	live  bool
	owner int
}

// inflight is the core call a connection slot waits on, if any.
type inflight struct {
	do coreCall
	i  int
}

// branchModel is one shard: the table under test, the connection in each
// of two slots (a dropped one is replaced by a fresh one), and the core.
type branchModel struct {
	t        branchTable
	conns    [nSlots]*serverConn
	tx       [2]modelTx
	read     modelRead
	busy     [nSlots]inflight
	finished bool // FinishRecovery ran since the last restart
}

// walkBranches visits, breadth first, every state the model reaches in up
// to depth events, and returns how many it reached, or the first broken
// rule with the sequence that breaks it.
func walkBranches(depth int) (int, error) {
	type node struct {
		parent int
		in     branchInput
	}
	nodes := []node{{-1, branchInput{}}}
	trace := func(n int, last string) string {
		var names []string
		for ; n > 0; n = nodes[n].parent {
			names = append(names, nodes[n].in.name())
		}
		slices.Reverse(names)
		return strings.Join(append(names, last), ", ")
	}
	m := &branchModel{t: newTableForTest()}
	m.tx[0], m.tx[1] = modelTx{core: '-'}, modelTx{core: '-'}
	if err := m.restart(); err != nil {
		return 0, err
	}
	seen := map[string]bool{string(m.appendKey(nil)): true}
	type item struct {
		m *branchModel
		n int
	}
	frontier := []item{{m, 0}}
	// Each input is tried on a scratch copy; only a new state is cloned.
	c, bufs := &branchModel{t: newTableForTest()}, new([3]branch)
	var ins []branchInput
	var key []byte
	for d := 0; d < depth && len(frontier) > 0; d++ {
		var next []item
		for _, it := range frontier {
			ins = it.m.inputs(ins[:0])
			for _, in := range ins {
				it.m.copyInto(c, bufs)
				err := in.apply(c)
				key = c.appendKey(key[:0])
				fresh := !seen[string(key)]
				if err == nil && fresh {
					// The checks read only what the key holds: a state
					// seen before has passed them.
					err = c.check()
				}
				if err != nil {
					return len(seen), fmt.Errorf("%v\n  after %s", err, trace(it.n, in.name()))
				}
				if fresh {
					seen[string(key)] = true
					nodes = append(nodes, node{it.n, in})
					next = append(next, item{c.clone(), len(nodes) - 1})
				}
			}
		}
		frontier = next
	}
	if len(frontier) > 0 {
		return len(seen), fmt.Errorf("the walk looks truncated: %d states still unexpanded after %d events", len(frontier), depth)
	}
	return len(seen), nil
}

func newTableForTest() branchTable {
	return branchTable{live: map[histories.TxID]*branch{}, outcomes: map[histories.TxID]txOutcome{}}
}

func (m *branchModel) clone() *branchModel {
	c := *m
	c.t.live = make(map[histories.TxID]*branch, len(m.t.live))
	for id, b := range m.t.live {
		nb := *b
		c.t.live[id] = &nb
	}
	c.t.outcomes = maps.Clone(m.t.outcomes)
	c.t.order = slices.Clone(m.t.order)
	return &c
}

// copyInto makes dst a copy of m that reuses dst's maps and order and
// keeps its branches in bufs, so trying an input allocates little.
func (m *branchModel) copyInto(dst *branchModel, bufs *[3]branch) {
	live, outcomes, order := dst.t.live, dst.t.outcomes, dst.t.order[:0]
	*dst = *m
	clear(live)
	clear(outcomes)
	i := 0
	for id, b := range m.t.live {
		bufs[i] = *b
		live[id] = &bufs[i]
		i++
	}
	maps.Copy(outcomes, m.t.outcomes)
	dst.t.live, dst.t.outcomes, dst.t.order = live, outcomes, append(order, m.t.order...)
}

// appendKey appends the model's state to k: what decides its futures and
// its checks.  A branch's owner is its connection's slot, 'x' once that
// connection closed.
func (m *branchModel) appendKey(k []byte) []byte {
	flag := func(b bool) byte {
		if b {
			return '1'
		}
		return '0'
	}
	for _, id := range []histories.TxID{branchIDs[0], branchIDs[1], readID} {
		state, owner := byte('-'), byte('-')
		if b := m.t.live[id]; b != nil {
			state = '0' + byte(b.state)
			if slot := slices.Index(m.conns[:], b.owner); slot >= 0 {
				owner = '0' + byte(slot)
			} else if b.owner != nil {
				owner = 'x'
			}
		}
		o := m.t.outcomes[id]
		k = append(k, state, owner, '0'+o.status, byte(o.ts))
	}
	for _, x := range m.tx {
		k = append(k, x.core, byte(x.ts), byte(x.owner+1), flag(x.yes), x.decided, flag(x.recovered))
	}
	k = append(k, flag(m.read.live), byte(m.read.owner+1))
	for _, n := range m.t.count {
		k = append(k, byte(n))
	}
	for _, f := range m.busy {
		k = append(k, byte(f.do), byte(f.i))
	}
	return append(k, flag(m.finished))
}

func (m *branchModel) anyRecovered() bool { return m.tx[0].recovered || m.tx[1].recovered }

// branchInput is one event the model can take, on connection slot: a
// request of kind k naming id; when k is evDrop, the connection's drop;
// when k is evApplied, the completion of the core call do the slot waits
// on, applied when ok; or, when slot is -1, a crash and restart.
type branchInput struct {
	slot int
	id   histories.TxID
	k    branchEvKind
	do   coreCall
	ok   bool
}

func (in branchInput) name() string {
	switch {
	case in.slot < 0:
		return "crash and restart"
	case in.k == evDrop:
		return fmt.Sprintf("drop %d", in.slot)
	case in.k == evApplied:
		return fmt.Sprintf("%s of %s on %d %s", callNames[in.do], in.id, in.slot, map[bool]string{true: "applied", false: "failed"}[in.ok])
	}
	return fmt.Sprintf("%s %s on %d", eventNames[in.k], in.id, in.slot)
}

func (in branchInput) apply(m *branchModel) error {
	switch {
	case in.slot < 0:
		return m.restart()
	case in.k == evDrop:
		return m.drop(in.slot)
	case in.k == evApplied:
		return m.complete(in.slot, in.ok)
	case in.id == readID:
		return m.readRequest(in.slot, in.k)
	}
	return m.request(in.slot, slices.Index(branchIDs[:], in.id), in.k)
}

// inputs appends to out what can happen next: a slot's core call
// completes, applied or failed; an idle slot sends a request or is
// dropped; the shard crashes and restarts.
func (m *branchModel) inputs(out []branchInput) []branchInput {
	for slot := range m.conns {
		if f := m.busy[slot]; f.do != none {
			for _, ok := range []bool{true, false} {
				out = append(out, branchInput{slot: slot, id: branchIDs[f.i], k: evApplied, do: f.do, ok: ok})
			}
			continue
		}
		for i, id := range branchIDs {
			for _, k := range []branchEvKind{evCall, evCommit, evPrepare, evDecide, evAbort} {
				x := m.tx[i]
				switch {
				case k == evCommit && (x.decided != 0 || x.yes),
					k == evPrepare && x.decided != 0,
					k == evDecide && (!x.yes || x.decided == 'a'),
					k == evAbort && x.decided == 'c':
					continue
				}
				out = append(out, branchInput{slot: slot, id: id, k: k})
			}
		}
		for _, k := range []branchEvKind{evReadBegin, evReadActivate, evReadCall, evReadComplete} {
			out = append(out, branchInput{slot: slot, id: readID, k: k})
		}
		out = append(out, branchInput{slot: slot, k: evDrop})
	}
	return append(out, branchInput{slot: -1})
}

// eventNames and callNames name events and core calls in failures and in
// branchrules.txt.
var (
	eventNames = [...]string{evCall: "call", evReadBegin: "read-begin", evReadActivate: "activate", evReadCall: "read-call",
		evReadComplete: "complete", evCommit: "commit", evPrepare: "prepare", evDecide: "decide", evAbort: "abort",
		evStatus: "status", evDrop: "drop", evRecover: "recover", evScanned: "scanned", evCommitted: "committed",
		evVoted: "voted", evApplied: "applied", evResolved: "resolved", evFinished: "finished"}
	callNames = [...]string{none: "-", doBegin: "Begin", doCall: "Call", doCommitAbove: "CommitAbove",
		doPrepare: "Prepare", doCommitAt: "CommitAt", doAbort: "Abort", doResolve: "Resolve", doAbandon: "Abandon",
		doFinish: "Finish", doReadBegin: "ReadBegin", doActivate: "Activate", doReadCall: "ReadCall", doReadEnd: "ReadEnd"}
)

// request sends a kind request about branch i on slot's connection, and
// makes the core calls the action names, as Server.handleBranch does.
func (m *branchModel) request(slot, i int, kind branchEvKind) error {
	x := &m.tx[i]
	var ts histories.Timestamp
	switch kind {
	case evDecide:
		ts, x.decided = decidedTS[i], 'c'
	case evCommit:
		x.decided = 'c'
	case evAbort:
		x.decided = 'a'
	}
	a := m.t.step(branchIDs[i], branchEvent{kind: kind, conn: m.conns[slot], ts: ts})
	if (kind == evCall || kind == evPrepare) && errors.Is(a.err, ErrRecovering) != m.anyRecovered() {
		return fmt.Errorf("rule 5: %s answered %v while recovered branches are unresolved=%v", eventNames[kind], a.err, m.anyRecovered())
	}
	a, err := m.resolve(i, a)
	if err != nil {
		return err
	}
	switch a.do {
	case doBegin:
		if x.core != '-' {
			return fmt.Errorf("%s began twice", branchIDs[i])
		}
		x.core, x.owner = 'a', slot
	case doAbort:
		return m.abort(i, kind)
	case doCommitAbove, doCommitAt:
		if err := m.applyOnce(i); err != nil {
			return err
		}
		fallthrough
	case doPrepare:
		m.busy[slot] = inflight{a.do, i}
	case none:
		if kind == evDecide && a.err == nil && x.core != 'c' {
			return fmt.Errorf("rule 2: commit decision of %s acknowledged, not applied (core %c)", branchIDs[i], x.core)
		}
	}
	return nil
}

// readCalls is the core call each read request makes when it runs.
var readCalls = map[branchEvKind]coreCall{evReadBegin: doReadBegin, evReadActivate: doActivate, evReadCall: doReadCall, evReadComplete: doReadEnd}

// readRequest sends a kind read request about R on slot's connection, and
// makes the core call the action names, as Server.handleBranch does.  A
// begin runs exactly when no read of R is live and no recovered branch is
// unresolved; an activate, call or complete exactly when slot owns R.
func (m *branchModel) readRequest(slot int, kind branchEvKind) error {
	a := m.t.step(readID, branchEvent{kind: kind, conn: m.conns[slot]})
	r := &m.read
	runs := r.live && r.owner == slot
	switch {
	case kind == evReadBegin && errors.Is(a.err, ErrRecovering) != m.anyRecovered():
		return fmt.Errorf("rule 5: read begin answered %v while recovered branches are unresolved=%v", a.err, m.anyRecovered())
	case kind == evReadBegin && r.live && a.do != none:
		return fmt.Errorf("rule 7: a second read begin of R began another ReadTx; the first is stranded")
	case kind == evReadBegin:
		runs = !r.live && !m.anyRecovered()
	}
	switch {
	case a.do != none && a.do != readCalls[kind]:
		return fmt.Errorf("%s R made core call %d", eventNames[kind], a.do)
	case (a.do != none) != runs:
		return fmt.Errorf("rule 6: %s R on %d ran=%v (%v); R live=%v, owned by %d", eventNames[kind], slot, a.do != none, a.err, r.live, r.owner)
	case a.do == doReadBegin:
		*r = modelRead{live: true, owner: slot}
	case a.do == doReadEnd:
		*r = modelRead{owner: -1}
	}
	return nil
}

// crossKinds are the requests that name a live branch of the other kind:
// update requests naming the read branch, and read begins and completes
// naming an update branch.
var crossKinds = map[histories.TxID][]branchEvKind{
	readID:       {evCall, evCommit, evPrepare, evDecide, evAbort},
	branchIDs[0]: {evReadBegin, evReadComplete},
	branchIDs[1]: {evReadBegin, evReadComplete},
}

// checkCross sends every cross request on every idle slot and checks that
// each changes nothing (rule 8).  It leaves the model as it was unless it
// fails.
func (m *branchModel) checkCross() error {
	var b0, b1 [64]byte
	before := m.appendKey(b0[:0])
	for slot, f := range m.busy {
		if f.do != none {
			continue
		}
		for id, kinds := range crossKinds {
			if m.t.live[id] == nil {
				continue
			}
			for _, k := range kinds {
				a := m.t.step(id, branchEvent{kind: k, conn: m.conns[slot]})
				if a.do != none || !bytes.Equal(m.appendKey(b1[:0]), before) {
					return fmt.Errorf("rule 8: %s %s on %d, a branch of the other kind, made core call %d (%v) or changed the table", eventNames[k], id, slot, a.do, a.err)
				}
			}
		}
	}
	return nil
}

// applyOnce checks that a commit may reach branch i: it has not committed
// and no commit of it is in flight.
func (m *branchModel) applyOnce(i int) error {
	for _, f := range m.busy {
		if f.i == i && (f.do == doCommitAbove || f.do == doCommitAt) {
			return fmt.Errorf("rule 2: %s committed while its commit is in flight", branchIDs[i])
		}
	}
	if m.tx[i].core == 'c' {
		return fmt.Errorf("rule 2: %s committed twice", branchIDs[i])
	}
	return nil
}

// abort aborts branch i in the core, for an abort request or a drop.
func (m *branchModel) abort(i int, kind branchEvKind) error {
	x := &m.tx[i]
	switch {
	case x.core == 'c':
		return fmt.Errorf("committed %s aborted", branchIDs[i])
	case (x.core == 'p' || x.core == 'f') && kind != evAbort:
		return fmt.Errorf("rule 1: prepared %s aborted without a decision", branchIDs[i])
	}
	x.core = 'x'
	return nil
}

// resolve makes the locked core calls a names, as Server.resolveLocked
// does, for branch i (-1 for none).
func (m *branchModel) resolve(i int, a branchAction) (branchAction, error) {
	var id histories.TxID
	if i >= 0 {
		id = branchIDs[i]
	}
	for {
		ev := branchEvent{kind: evResolved, ts: a.ts}
		switch a.do {
		case doResolve, doAbandon:
			x := &m.tx[i]
			if !x.recovered {
				return a, fmt.Errorf("rule 2: %s resolved, but it is not awaiting resolution", id)
			}
			x.recovered = false
			if a.do == doAbandon {
				x.core = 'x'
			} else {
				x.core, x.ts = 'c', a.ts
			}
		case doFinish:
			switch {
			case m.finished:
				return a, fmt.Errorf("rule 5: FinishRecovery ran twice")
			case m.anyRecovered():
				return a, fmt.Errorf("rule 5: FinishRecovery ran with recovered branches unresolved")
			}
			m.finished, ev.kind = true, evFinished
		default:
			return a, nil
		}
		a = m.t.step(id, ev)
	}
}

// complete finishes the core call slot waits on, applied when ok unless
// the core no longer allows it, and reports its result.
func (m *branchModel) complete(slot int, ok bool) error {
	f := m.busy[slot]
	m.busy[slot] = inflight{}
	x := &m.tx[f.i]
	ev := branchEvent{}
	switch f.do {
	case doCommitAbove:
		ev.kind = evCommitted
		switch {
		case ok && x.core == 'a':
			x.core, x.ts, ev.ts = 'c', fastPathTS[f.i], fastPathTS[f.i]
		case x.core == 'a':
			x.core, ev.err = 'x', errLogged
		default:
			ev.err = core.ErrTxDone
		}
	case doPrepare:
		ev.kind = evVoted
		if ok && (x.core == 'a' || x.core == 'p') {
			x.core = 'p'
		} else {
			ev.err = errLogged
		}
	case doCommitAt:
		ev.kind, ev.ts = evApplied, decidedTS[f.i]
		switch {
		case x.core != 'a' && x.core != 'p':
			ev.err = core.ErrTxDone
		case ok:
			x.core, x.ts = 'c', ev.ts
		default:
			x.core, ev.err = 'f', errLogged
		}
	}
	a := m.t.step(branchIDs[f.i], ev)
	switch {
	case f.do == doPrepare && ev.err == nil:
		x.yes = true
	case f.do == doCommitAt && a.err == nil && x.core != 'c':
		return fmt.Errorf("rule 2: commit decision of %s acknowledged, not applied (core %c)", branchIDs[f.i], x.core)
	}
	return nil
}

// drop closes slot's connection, as Server.dropConn does, and opens a
// fresh one in its place.
func (m *branchModel) drop(slot int) error {
	c := m.conns[slot]
	ended := map[histories.TxID]coreCall{}
	for id := range m.t.live {
		ended[id] = m.t.step(id, branchEvent{kind: evDrop, conn: c}).do
	}
	if own := m.read.live && m.read.owner == slot; ended[readID] != when(own, doReadEnd) {
		return fmt.Errorf("rule 7: dropping %d made core call %d on R; R live and its own=%v", slot, ended[readID], own)
	} else if own {
		m.read = modelRead{owner: -1}
	}
	for i, id := range branchIDs {
		x := &m.tx[i]
		if own := x.owner == slot && x.core == 'a'; ended[id] != when(own, doAbort) {
			return fmt.Errorf("rule 4: dropping %d made core call %d on %s; its own unprepared=%v", slot, ended[id], id, own)
		}
		if ended[id] == doAbort {
			if err := m.abort(i, evDrop); err != nil {
				return err
			}
		}
		if x.owner == slot {
			x.owner = -1
		}
	}
	m.conns[slot] = &serverConn{}
	return nil
}

// when is do if own holds, none otherwise.
func when(own bool, do coreCall) coreCall {
	if own {
		return do
	}
	return none
}

// restart crashes the shard, losing what was in flight, and recovers it
// from its log as NewServer does: committed branches are remembered,
// prepared ones (and those whose decided commit was not logged) recovered,
// and the rest forgotten.
func (m *branchModel) restart() error {
	// The read branch's ReadTx, and its pin, die with the process.
	m.t, m.busy, m.finished, m.read = newTableForTest(), [nSlots]inflight{}, false, modelRead{owner: -1}
	for slot := range m.conns {
		m.conns[slot] = &serverConn{}
	}
	for i := range m.tx {
		x := &m.tx[i]
		x.owner = -1
		switch x.core {
		case 'a', 'x':
			// The log keeps no trace of a branch that did not prepare: a
			// call after the restart begins it afresh.
			x.core = '-'
		case 'p', 'f':
			x.core, x.recovered = 'p', true
		}
		if x.core == 'c' {
			m.t.step(branchIDs[i], branchEvent{kind: evRecover, ts: x.ts})
		}
	}
	for i := range m.tx {
		if m.tx[i].recovered {
			m.t.step(branchIDs[i], branchEvent{kind: evRecover})
		}
	}
	_, err := m.resolve(-1, m.t.step("", branchEvent{kind: evScanned}))
	return err
}

// check checks the rules that hold in every state.
func (m *branchModel) check() error {
	var count [nStates]int
	for _, b := range m.t.live {
		count[b.state]++
	}
	if count != m.t.count {
		return fmt.Errorf("branch counts %v, live branches %v", m.t.count, count)
	}
	if b, r := m.t.live[readID], m.read; (b != nil) != r.live || b != nil && (b.state != branchReading || b.owner != m.conns[r.owner]) {
		return fmt.Errorf("rule 7: the table holds R=%v; the core's ReadTx live=%v, owned by %d", b != nil, r.live, r.owner)
	}
	for i, id := range branchIDs {
		x := m.tx[i]
		if (x.core == 'p' || x.core == 'f') && m.t.live[id] == nil {
			return fmt.Errorf("rule 1: prepared %s left the table without a decision", id)
		}
		o := m.t.step(id, branchEvent{kind: evStatus}).out
		switch {
		case o.status == outcomeCommitted && (x.core != 'c' || x.ts != o.ts):
			return fmt.Errorf("rule 3: a probe of %s says committed at %d; the core has %c at %d", id, o.ts, x.core, x.ts)
		case o.status == outcomeAborted && x.core != 'x':
			return fmt.Errorf("rule 3: a probe of %s says aborted; the core has %c", id, x.core)
		}
	}
	if m.t.recovering() != m.anyRecovered() || m.finished == m.anyRecovered() {
		return fmt.Errorf("rule 5: gate shut=%v, FinishRecovery ran=%v, recovered branches unresolved=%v", m.t.recovering(), m.finished, m.anyRecovered())
	}
	return m.checkCross()
}
