// Package lockmachine implements the LOCK state machine of Section 5 of
// Herlihy & Weihl verbatim: states consist of pending invocations,
// per-transaction intentions lists, commit timestamps, and an aborted set;
// response events are enabled when the operation is legal in the caller's
// view and conflicts with no operation of another active transaction.  The
// package also maintains the Section 6 bookkeeping (clock, per-transaction
// lower bounds, horizon, and the monotone common prefix), the appendix's
// forget() into a version, and Section 7's read-only transactions, which
// read the committed state as of the timestamp they chose at their start.
//
// This is the reference model used for model checking Theorems 16 and 17;
// the production runtime in internal/core implements the same algorithm
// with compacted versions.
package lockmachine

import (
	"fmt"
	"sort"

	"hybridcc/internal/depend"
	"hybridcc/internal/histories"
	"hybridcc/internal/spec"
)

// Timestamp sentinels: the clock starts at -∞ (paper: s.clock = −∞).
const (
	MinTS histories.Timestamp = -1 << 62
	MaxTS histories.Timestamp = 1 << 62
)

// Machine is an instance of LOCK for a single object.
type Machine struct {
	obj      histories.ObjID
	sp       spec.Spec
	conflict depend.Conflict

	pending    map[histories.TxID]spec.Invocation
	intentions map[histories.TxID][]spec.Op
	committed  map[histories.TxID]histories.Timestamp
	aborted    map[histories.TxID]bool

	// Section 6 auxiliary components.
	clock histories.Timestamp
	bound map[histories.TxID]histories.Timestamp

	// Section 7: the read-only transactions, each with the timestamp it
	// chose at its start.  version holds the folded intentions (the
	// appendix's forget()) in timestamp order, folded the committed
	// transactions they came from.
	readers map[histories.TxID]*reader
	version []spec.Op
	folded  map[histories.TxID]bool

	usedTS  map[histories.Timestamp]histories.TxID
	history histories.History
}

// reader is a Section 7 read-only transaction: open until EndRead, and
// read once it has read here.
type reader struct {
	ts         histories.Timestamp
	open, read bool
}

// New returns a fresh LOCK machine for an object named obj with serial
// specification sp and the given (symmetric) conflict relation.
func New(obj histories.ObjID, sp spec.Spec, conflict depend.Conflict) *Machine {
	return &Machine{
		obj:        obj,
		sp:         sp,
		conflict:   conflict,
		pending:    make(map[histories.TxID]spec.Invocation),
		intentions: make(map[histories.TxID][]spec.Op),
		committed:  make(map[histories.TxID]histories.Timestamp),
		aborted:    make(map[histories.TxID]bool),
		clock:      MinTS,
		bound:      make(map[histories.TxID]histories.Timestamp),
		readers:    make(map[histories.TxID]*reader),
		folded:     make(map[histories.TxID]bool),
		usedTS:     make(map[histories.Timestamp]histories.TxID),
	}
}

// Object returns the object this machine manages.
func (m *Machine) Object() histories.ObjID { return m.obj }

// Spec returns the machine's serial specification.
func (m *Machine) Spec() spec.Spec { return m.sp }

// History returns a copy of the event sequence accepted so far.
func (m *Machine) History() histories.History {
	return append(histories.History(nil), m.history...)
}

// Completed reports whether tx has committed or aborted.
func (m *Machine) Completed(tx histories.TxID) bool {
	_, c := m.committed[tx]
	return c || m.aborted[tx]
}

// Intentions returns a copy of tx's intentions list.
func (m *Machine) Intentions(tx histories.TxID) []spec.Op {
	return append([]spec.Op(nil), m.intentions[tx]...)
}

// Clock returns the Section 6 logical clock: the largest commit timestamp
// observed, or MinTS if none.
func (m *Machine) Clock() histories.Timestamp { return m.clock }

// Bound returns tx's recorded lower bound on its eventual commit timestamp.
func (m *Machine) Bound(tx histories.TxID) (histories.Timestamp, bool) {
	b, ok := m.bound[tx]
	return b, ok
}

// committedOrder returns the committed transactions in timestamp order.
func (m *Machine) committedOrder() []histories.TxID {
	txs := make([]histories.TxID, 0, len(m.committed))
	for t := range m.committed {
		txs = append(txs, t)
	}
	sort.Slice(txs, func(i, j int) bool { return m.committed[txs[i]] < m.committed[txs[j]] })
	return txs
}

// Permanent returns the concatenated intentions of committed transactions
// in timestamp order (the "committed state" of Section 5.1).
func (m *Machine) Permanent() []spec.Op {
	var out []spec.Op
	for _, t := range m.committedOrder() {
		out = append(out, m.intentions[t]...)
	}
	return out
}

// View returns View(tx, s): the committed state followed by tx's own
// intentions list.
func (m *Machine) View(tx histories.TxID) []spec.Op {
	return append(m.Permanent(), m.intentions[tx]...)
}

// viewState replays View(tx) and returns the resulting specification
// state.  Accepted machine states always have legal views (this is an
// invariant of the algorithm; a failure here is a bug, hence the panic).
func (m *Machine) viewState(tx histories.TxID) spec.State {
	s, ok := spec.Replay(m.sp, m.View(tx))
	if !ok {
		panic(fmt.Sprintf("lockmachine: view of %q is illegal: %s", tx, spec.SeqString(m.View(tx))))
	}
	return s
}

// Invoke records the invocation event ⟨inv, X, tx⟩.  Invocation events are
// inputs with precondition True in the paper; the machine rejects inputs
// that would violate well-formedness (a pending invocation, or an
// invocation after commit).
func (m *Machine) Invoke(tx histories.TxID, inv spec.Invocation) error {
	if _, ok := m.committed[tx]; ok {
		return fmt.Errorf("lockmachine: %q invoked %s after committing", tx, inv)
	}
	if p, ok := m.pending[tx]; ok {
		return fmt.Errorf("lockmachine: %q invoked %s while %s is pending", tx, inv, p)
	}
	m.pending[tx] = inv
	m.bound[tx] = m.clock
	m.history = append(m.history, histories.InvokeEvent(tx, m.obj, inv))
	return nil
}

// GrantableResponses enumerates the responses r such that the response
// event ⟨r, X, tx⟩ is currently enabled: the operation (pending(tx), r) is
// legal in tx's view and conflicts with no operation executed by another
// active transaction.
func (m *Machine) GrantableResponses(tx histories.TxID) ([]string, error) {
	inv, ok := m.pending[tx]
	if !ok {
		return nil, fmt.Errorf("lockmachine: %q has no pending invocation", tx)
	}
	if m.Completed(tx) {
		return nil, fmt.Errorf("lockmachine: %q has completed", tx)
	}
	state := m.viewState(tx)
	var out []string
	for _, r := range m.sp.Responses(state, inv) {
		if m.conflictsWithActive(tx, inv.With(r)) {
			continue
		}
		out = append(out, r)
	}
	return out, nil
}

// conflictsWithActive reports whether op conflicts with any operation in
// the intentions list of another active (not completed) transaction.
func (m *Machine) conflictsWithActive(tx histories.TxID, op spec.Op) bool {
	for other, ops := range m.intentions {
		if other == tx || m.Completed(other) {
			continue
		}
		for _, p := range ops {
			if m.conflict.Conflicts(p, op) {
				return true
			}
		}
	}
	return false
}

// RespondWith attempts the response event ⟨res, X, tx⟩.  It returns true
// and records the event when the precondition holds; false when the
// response is not currently grantable (illegal in the view, or blocked by a
// lock conflict) — the paper's "refused, retried later".
func (m *Machine) RespondWith(tx histories.TxID, res string) (bool, error) {
	grantable, err := m.GrantableResponses(tx)
	if err != nil {
		return false, err
	}
	for _, r := range grantable {
		if r != res {
			continue
		}
		inv := m.pending[tx]
		delete(m.pending, tx)
		m.intentions[tx] = append(m.intentions[tx], inv.With(res))
		m.bound[tx] = m.clock
		m.history = append(m.history, histories.RespondEvent(tx, m.obj, res))
		return true, nil
	}
	return false, nil
}

// TryRespond attempts to respond to tx's pending invocation with the first
// grantable response.  It returns the response and true on success, or
// false when every response is blocked (lock conflict or partial
// operation).
func (m *Machine) TryRespond(tx histories.TxID) (string, bool, error) {
	grantable, err := m.GrantableResponses(tx)
	if err != nil {
		return "", false, err
	}
	if len(grantable) == 0 {
		return "", false, nil
	}
	ok, err := m.RespondWith(tx, grantable[0])
	if err != nil || !ok {
		return "", false, err
	}
	return grantable[0], true, nil
}

// Commit records the commit event ⟨commit(ts), X, tx⟩.  The machine
// enforces the paper's well-formedness constraints on inputs: no commit
// after abort or while an invocation is pending, timestamps are unique and
// stable, and the timestamp respects the precedes order (ts must exceed the
// transaction's recorded lower bound, which is how logical-clock generation
// manifests at a single object).
func (m *Machine) Commit(tx histories.TxID, ts histories.Timestamp) error {
	if m.aborted[tx] {
		return fmt.Errorf("lockmachine: commit of aborted %q", tx)
	}
	if _, ok := m.pending[tx]; ok {
		return fmt.Errorf("lockmachine: commit of %q while an invocation is pending", tx)
	}
	if prev, ok := m.committed[tx]; ok {
		if prev != ts {
			return fmt.Errorf("lockmachine: %q recommitted with timestamp %d ≠ %d", tx, ts, prev)
		}
		m.history = append(m.history, histories.CommitEvent(tx, m.obj, ts))
		return nil
	}
	if owner, ok := m.usedTS[ts]; ok && owner != tx {
		return fmt.Errorf("lockmachine: timestamp %d already used by %q", ts, owner)
	}
	if b, ok := m.bound[tx]; ok && ts <= b {
		return fmt.Errorf("lockmachine: timestamp %d for %q violates lower bound %d", ts, tx, b)
	}
	m.committed[tx] = ts
	m.usedTS[ts] = tx
	if ts > m.clock {
		m.clock = ts
	}
	delete(m.bound, tx)
	m.history = append(m.history, histories.CommitEvent(tx, m.obj, ts))
	return nil
}

// Abort records the abort event ⟨abort, X, tx⟩, releasing tx's locks and
// discarding its intentions.
func (m *Machine) Abort(tx histories.TxID) error {
	if _, ok := m.committed[tx]; ok {
		return fmt.Errorf("lockmachine: abort of committed %q", tx)
	}
	m.aborted[tx] = true
	delete(m.pending, tx)
	delete(m.intentions, tx)
	delete(m.bound, tx)
	m.history = append(m.history, histories.AbortEvent(tx, m.obj))
	return nil
}

// Horizon computes the horizon timestamp of Definition 20, with the open
// readers of Section 7 pinning it at their timestamps, as internal/core's
// forgetLocked counts its reader pins:
//
//	max(−∞, min(min{bound(P) : bound(P) ≠ ⊥}, min{ts(R) : R open}, max{committed(P)}))
func (m *Machine) Horizon() histories.Timestamp {
	maxCommitted := MinTS
	for _, ts := range m.committed {
		maxCommitted = max(maxCommitted, ts)
	}
	return max(MinTS, min(m.foldHorizon(), maxCommitted))
}

// foldHorizon is the horizon without Definition 20's cap at the newest
// commit: the smallest bound of an active transaction or timestamp of an
// open reader, MaxTS when there is none.
func (m *Machine) foldHorizon() histories.Timestamp {
	h := MaxTS
	for _, b := range m.bound {
		h = min(h, b)
	}
	for _, r := range m.readers {
		if r.open {
			h = min(h, r.ts)
		}
	}
	return h
}

// Fold is the appendix's forget() as internal/core's forgetLocked runs
// it: every unfolded committed intentions list below the fold horizon
// moves into the version, in timestamp order.  The fold horizon drops
// Definition 20's cap at the newest commit, as forgetLocked does — a
// transaction yet to respond here records the clock as its bound and
// commits above it, and a reader yet to start stamps itself above the
// clock.  Fold reports how many non-empty intentions lists it moved.
func (m *Machine) Fold() int {
	h, n := m.foldHorizon(), 0
	for _, t := range m.committedOrder() {
		if !m.folded[t] && m.committed[t] < h {
			m.folded[t] = true
			if ops := m.intentions[t]; len(ops) > 0 {
				m.version = append(m.version, ops...)
				n++
			}
		}
	}
	return n
}

// Version returns a copy of the folded intentions, in timestamp order.
func (m *Machine) Version() []spec.Op {
	return append([]spec.Op(nil), m.version...)
}

// BeginRead opens tx as a Section 7 read-only transaction at ts, the
// timestamp it chose when it started; while open it pins the horizon at
// ts.  Like Commit it enforces uniqueness on its input: no committed
// transaction or other reader may hold ts, and tx must be new here.
func (m *Machine) BeginRead(tx histories.TxID, ts histories.Timestamp) error {
	_, active := m.bound[tx]
	if _, seen := m.readers[tx]; seen || active || m.Completed(tx) {
		return fmt.Errorf("lockmachine: %q began reading after running here", tx)
	}
	if owner, ok := m.usedTS[ts]; ok {
		return fmt.Errorf("lockmachine: reader %q's timestamp %d already used by %q", tx, ts, owner)
	}
	m.readers[tx] = &reader{ts: ts, open: true}
	m.usedTS[ts] = tx
	return nil
}

// Read answers the read-only invocation inv for the open reader tx from
// the state as of its timestamp, rebuilt the way internal/core's snapshot
// is: the version, then each unfolded committed intentions list below the
// timestamp, in timestamp order — the committed intentions below it, as
// long as no fold has passed an open reader.  The response is the first
// the specification allows; Read records the invocation and the response,
// and refuses an operation that would change the state.
func (m *Machine) Read(tx histories.TxID, inv spec.Invocation) (string, error) {
	r, ok := m.readers[tx]
	if !ok || !r.open {
		return "", fmt.Errorf("lockmachine: %q is not an open reader", tx)
	}
	state, ok := spec.Replay(m.sp, m.version)
	for _, t := range m.committedOrder() {
		if ok && !m.folded[t] && m.committed[t] < r.ts {
			state, ok = spec.StepFrom(m.sp, state, m.intentions[t]...)
		}
	}
	if !ok {
		return "", fmt.Errorf("lockmachine: %q's snapshot at %d is illegal", tx, r.ts)
	}
	responses := m.sp.Responses(state, inv)
	if len(responses) == 0 {
		return "", fmt.Errorf("lockmachine: %s has no response in %q's snapshot", inv, tx)
	}
	op := inv.With(responses[0])
	if next, ok := m.sp.Step(state, op); !ok || !m.sp.Equal(state, next) {
		return "", fmt.Errorf("lockmachine: %q's %s changes the state", tx, op)
	}
	r.read = true
	m.history = append(m.history, histories.InvokeEvent(tx, m.obj, inv), histories.RespondEvent(tx, m.obj, op.Res))
	return op.Res, nil
}

// EndRead commits the reader tx and releases its pin.  A reader that read
// here leaves its commit event at its timestamp, as internal/core's ReadTx
// does at every object it read.
func (m *Machine) EndRead(tx histories.TxID) error {
	r, ok := m.readers[tx]
	if !ok || !r.open {
		return fmt.Errorf("lockmachine: %q is not an open reader", tx)
	}
	r.open = false
	if r.read {
		m.history = append(m.history, histories.CommitEvent(tx, m.obj, r.ts))
	}
	return nil
}

// Common computes the common prefix of Definition 22: the concatenated
// intentions of committed transactions whose timestamps precede the
// horizon.  Theorem 24 guarantees the result grows monotonically, so a real
// implementation can fold it into a version (internal/core does).
func (m *Machine) Common() []spec.Op {
	horizon := m.Horizon()
	var out []spec.Op
	for _, t := range m.committedOrder() {
		if m.committed[t] < horizon {
			out = append(out, m.intentions[t]...)
		}
	}
	return out
}
