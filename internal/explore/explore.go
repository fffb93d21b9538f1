// Package explore performs small-scope systematic model checking of the
// LOCK automaton: it enumerates EVERY schedule of a bounded configuration
// (transactions × invocations × timestamps × depth) and runs a check on
// every accepted history.  The search provides small-scope completeness:
// within the bounds, no interleaving — including commit-timestamp
// inversions between concurrent transactions — is missed.  Its tests check
// Theorems 16 and 17 on the compiled conflict tables the engine runs.  With
// Section 7 readers it also models internal/core's clock, commit window,
// reader registry and folding (readers.go).
package explore

import (
	"fmt"

	"hybridcc/internal/depend"
	"hybridcc/internal/histories"
	"hybridcc/internal/lockmachine"
	"hybridcc/internal/spec"
)

// Config bounds the exploration.
type Config struct {
	// Spec and Conflict define the object under test.
	Spec     spec.Spec
	Conflict depend.Conflict
	// Invocations a transaction may issue.
	Invocations []spec.Invocation
	// Txs is the number of transactions (2–3 keeps checks tractable).
	Txs int
	// Depth is the maximum number of events per schedule.
	Depth int
	// MaxTS is the largest commit timestamp considered; timestamps are
	// drawn from 1..MaxTS, which suffices to realize every commit-order /
	// timestamp-order inversion among Txs transactions.
	MaxTS histories.Timestamp
	// Readers adds that many Section 7 read-only transactions, R1, R2, …,
	// running internal/core's ReadTx protocol.  With readers, the search
	// models internal/core's clock and compaction too; see runReaders.
	Readers int
	// ReadInvocations a reader may issue: pure observers of Spec.
	ReadInvocations []spec.Invocation
}

// kind is what a schedule step does.
type kind int

const (
	invoke kind = iota
	respond
	commit
	abort
	draw  // take a commit timestamp from the clock: the commit window opens
	merge // the commit event at the drawn timestamp: the window closes
	pin   // a reader claims the lowest free slot with a provisional pin
	load  // a reader loads the clock
	raise // a reader stamps itself from its load and raises its pin
	read
	end
	fold
)

// readerSteps is the order in which a reader starts: pin before load, as
// internal/core's startRead does; raise comes last.
var readerSteps = [...]kind{pin, load, raise}

// action is one schedule step.
type action struct {
	kind kind
	tx   histories.TxID
	inv  spec.Invocation
	res  string
	ts   histories.Timestamp
}

func (a action) String() string {
	switch a.kind {
	case invoke:
		return fmt.Sprintf("%s invokes %s", a.tx, a.inv)
	case respond:
		return fmt.Sprintf("%s gets %s", a.tx, a.res)
	case commit:
		return fmt.Sprintf("%s commits(%d)", a.tx, a.ts)
	case abort:
		return fmt.Sprintf("%s aborts", a.tx)
	case draw:
		return fmt.Sprintf("%s draws", a.tx)
	case merge:
		return fmt.Sprintf("%s merges", a.tx)
	case pin:
		return fmt.Sprintf("%s pins", a.tx)
	case load:
		return fmt.Sprintf("%s loads the clock", a.tx)
	case raise:
		return fmt.Sprintf("%s raises its pin", a.tx)
	case read:
		return fmt.Sprintf("%s reads %s", a.tx, a.inv)
	case end:
		return fmt.Sprintf("%s ends", a.tx)
	default:
		return "fold"
	}
}

// apply performs a on m.
func apply(m *lockmachine.Machine, a action) error {
	switch a.kind {
	case invoke:
		return m.Invoke(a.tx, a.inv)
	case respond:
		ok, err := m.RespondWith(a.tx, a.res)
		if err == nil && !ok {
			return fmt.Errorf("explore: response %q refused", a.res)
		}
		return err
	case commit:
		return m.Commit(a.tx, a.ts)
	default:
		return m.Abort(a.tx)
	}
}

// Result summarizes an exploration.
type Result struct {
	// Histories is the number of distinct accepted histories checked
	// (every node of the schedule tree; every leaf with readers).
	Histories int
	// Violation holds the first failing history, if any.
	Violation histories.History
	// Err is the check error for Violation.
	Err error
}

// Run exhaustively explores cfg, invoking check on every accepted history.
// It stops at the first violation.  A configuration with readers checks
// every leaf instead (runReaders).
func Run(cfg Config, check func(histories.History) error) Result {
	if cfg.Readers > 0 {
		return runReaders(cfg, check)
	}
	txs := make([]histories.TxID, cfg.Txs)
	for i := range txs {
		txs[i] = histories.TxID(rune('A' + i))
	}
	res := Result{}

	// build reconstructs the machine for a path.  Rebuilding keeps the
	// search simple and allocation-light relative to deep-copying machine
	// state at every branch.
	build := func(path []action) *lockmachine.Machine {
		m := lockmachine.New("X", cfg.Spec, cfg.Conflict)
		for _, a := range path {
			if err := apply(m, a); err != nil {
				panic(fmt.Sprintf("explore: replay failed: %v", err))
			}
		}
		return m
	}

	var dfs func(path []action) bool
	dfs = func(path []action) bool {
		m := build(path)
		h := m.History()
		res.Histories++
		if err := check(h); err != nil {
			res.Violation = h
			res.Err = err
			return false
		}
		if len(path) == cfg.Depth {
			return true
		}
		for _, tx := range txs {
			if m.Completed(tx) {
				continue
			}
			if grantable, err := m.GrantableResponses(tx); err == nil {
				// Pending invocation: try every grantable response.
				for _, r := range grantable {
					if !dfs(append(path, action{kind: respond, tx: tx, res: r})) {
						return false
					}
				}
				continue
			}
			// Quiescent: invoke, commit, or abort.
			for _, inv := range cfg.Invocations {
				if !dfs(append(path, action{kind: invoke, tx: tx, inv: inv})) {
					return false
				}
			}
			bound, hasBound := m.Bound(tx)
			for ts := histories.Timestamp(1); ts <= cfg.MaxTS; ts++ {
				if used(m, txs, ts) {
					continue
				}
				if hasBound && ts <= bound {
					continue
				}
				if !dfs(append(path, action{kind: commit, tx: tx, ts: ts})) {
					return false
				}
			}
			if !dfs(append(path, action{kind: abort, tx: tx})) {
				return false
			}
		}
		return true
	}
	dfs(nil)
	return res
}

// used reports whether some transaction already committed with ts.
func used(m *lockmachine.Machine, txs []histories.TxID, ts histories.Timestamp) bool {
	for _, e := range m.History() {
		if e.Kind == histories.Commit && e.TS == ts {
			return true
		}
	}
	return false
}

// CheckOnline returns a check asserting well-formedness and online hybrid
// atomicity at object X.
func CheckOnline(sp spec.Spec) func(histories.History) error {
	specs := histories.SpecMap{"X": sp}
	return func(h histories.History) error {
		if err := histories.WellFormed(h); err != nil {
			return fmt.Errorf("ill-formed: %w", err)
		}
		ok, err := histories.OnlineHybridAtomicAt(h, "X", specs)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("not online hybrid atomic")
		}
		return nil
	}
}

// CheckHybrid returns a weaker check: well-formedness and plain hybrid
// atomicity (serializability of the committed transactions in timestamp
// order).  Useful for deeper searches where the online check's
// enumeration would dominate.
func CheckHybrid(sp spec.Spec) func(histories.History) error {
	specs := histories.SpecMap{"X": sp}
	return func(h histories.History) error {
		if err := histories.WellFormed(h); err != nil {
			return fmt.Errorf("ill-formed: %w", err)
		}
		ok, err := histories.HybridAtomic(h, specs)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("not hybrid atomic")
		}
		return nil
	}
}
