package explore

import (
	"errors"
	"fmt"
	"strings"

	"hybridcc/internal/histories"
	"hybridcc/internal/lockmachine"
	"hybridcc/internal/spec"
	"hybridcc/internal/tstamp"
)

// world is the state of a reader configuration around the machine: the
// clock, the commit window, and the reader registry, as internal/core
// keeps them.
type world struct {
	m     *lockmachine.Machine
	clock *tstamp.Source
	// drawn is the commit window: update transactions that have drawn a
	// timestamp and not merged it.
	drawn   map[histories.TxID]histories.Timestamp
	readers map[histories.TxID]*readerState
	// busy and last are the registry slots: claimed, and the stamp the
	// slot issued last (ReadStamp's tie-break).
	busy []bool
	last []histories.Timestamp
}

// readerState is one reader's progress: steps counts the readerSteps it
// has taken, slot is its slot once pinned, loaded the clock value it read.
type readerState struct {
	steps, slot   int
	loaded        histories.Timestamp
	pinned, ended bool
}

// provisional reports whether r holds a provisional pin: pinned, not yet
// raised.  It holds every horizon, so no fold runs.
func (r *readerState) provisional() bool {
	return r.pinned && r.steps < len(readerSteps)
}

// errNoFold marks a fold that moves nothing: no step, so not explored.
var errNoFold = errors.New("explore: nothing to fold")

// apply performs a on w.
func (w *world) apply(a action) error {
	r := w.readers[a.tx]
	switch a.kind {
	case draw:
		b, _ := w.m.Bound(a.tx)
		w.drawn[a.tx] = w.clock.Next(max(b, 0))
	case merge:
		ts := w.drawn[a.tx]
		delete(w.drawn, a.tx)
		return w.m.Commit(a.tx, ts)
	case pin:
		r.slot = 0
		for w.busy[r.slot] {
			r.slot++
		}
		w.busy[r.slot], r.pinned = true, true
		r.steps++
	case load:
		r.loaded = w.clock.Now()
		r.steps++
	case raise:
		// What ReadStamp returns at the loaded clock value, or — when it
		// declines — a draw, as startRead falls back to Next.
		var at tstamp.Source
		at.Observe(r.loaded)
		ts, ok := at.ReadStamp(uint64(r.slot), w.last[r.slot])
		if ok {
			w.last[r.slot] = ts
		} else {
			ts = w.clock.Next(0)
		}
		r.steps++
		return w.m.BeginRead(a.tx, ts)
	case read:
		_, err := w.m.Read(a.tx, a.inv)
		return err
	case end:
		r.ended = true
		w.busy[r.slot] = false
		return w.m.EndRead(a.tx)
	case fold:
		if w.m.Fold() == 0 {
			return errNoFold
		}
	default:
		return apply(w.m, a)
	}
	return nil
}

// next lists the steps enabled in w.  Update transactions invoke, respond,
// draw and merge — no abort, which releases a bound as a merge does.  A
// reader takes readerSteps in order, then reads while no update
// transaction is in its commit window (internal/core's reader waits one
// out) and ends.  A fold runs when no reader holds a provisional pin.
func (w *world) next(cfg Config, txs, rds []histories.TxID) []action {
	var out []action
	for _, tx := range txs {
		switch _, drawn := w.drawn[tx]; {
		case w.m.Completed(tx):
		case drawn:
			out = append(out, action{kind: merge, tx: tx})
		default:
			if grantable, err := w.m.GrantableResponses(tx); err == nil {
				for _, r := range grantable {
					out = append(out, action{kind: respond, tx: tx, res: r})
				}
				continue
			}
			for _, inv := range cfg.Invocations {
				out = append(out, action{kind: invoke, tx: tx, inv: inv})
			}
			out = append(out, action{kind: draw, tx: tx})
		}
	}
	provisional := false
	for _, tx := range rds {
		r := w.readers[tx]
		provisional = provisional || r.provisional()
		switch {
		case r.ended:
		case r.steps < len(readerSteps):
			out = append(out, action{kind: readerSteps[r.steps], tx: tx})
		default:
			if len(w.drawn) == 0 {
				for _, inv := range cfg.ReadInvocations {
					out = append(out, action{kind: read, tx: tx, inv: inv})
				}
			}
			out = append(out, action{kind: end, tx: tx})
		}
	}
	if !provisional {
		out = append(out, action{kind: fold})
	}
	return out
}

// runReaders explores a configuration with Section 7 readers.  It models
// internal/core beyond the lock machine:
//
//   - an update transaction commits by drawing its timestamp from a
//     tstamp.Source above its bound, which opens its commit window, and
//     merging it later — so windows overlap and merge out of order;
//   - a reader pins the lowest free registry slot provisionally, loads the
//     clock, then raises its pin to the stamp tstamp.Source.ReadStamp gives
//     at the loaded value (a draw when it declines), reads, and ends;
//   - a fold (lockmachine.Machine.Fold) may run between any two steps.
//
// A step the machine refuses — a reused timestamp, a read from an illegal
// snapshot — is a violation, and so is a leaf history (depth reached or
// nothing enabled) that check rejects.  It stops at the first.
func runReaders(cfg Config, check func(histories.History) error) Result {
	txs := make([]histories.TxID, cfg.Txs)
	for i := range txs {
		txs[i] = histories.TxID(rune('A' + i))
	}
	rds := make([]histories.TxID, cfg.Readers)
	for i := range rds {
		rds[i] = histories.TxID(fmt.Sprintf("R%d", i+1))
	}
	build := func(path []action) (*world, error) {
		w := &world{
			m:       lockmachine.New("X", cfg.Spec, cfg.Conflict),
			clock:   tstamp.NewSource(),
			drawn:   make(map[histories.TxID]histories.Timestamp),
			readers: make(map[histories.TxID]*readerState),
			busy:    make([]bool, cfg.Readers),
			last:    make([]histories.Timestamp, cfg.Readers),
		}
		for _, tx := range rds {
			w.readers[tx] = &readerState{}
		}
		for i, a := range path {
			if err := w.apply(a); err != nil {
				if i < len(path)-1 {
					panic(fmt.Sprintf("explore: replay failed: %v", err))
				}
				return w, err
			}
		}
		return w, nil
	}

	res := Result{}
	var dfs func(path []action) bool
	dfs = func(path []action) bool {
		w, err := build(path)
		if errors.Is(err, errNoFold) {
			return true
		}
		if err == nil {
			next := w.next(cfg, txs, rds)
			if len(path) < cfg.Depth && len(next) > 0 {
				for _, a := range next {
					if !dfs(append(path, a)) {
						return false
					}
				}
				return true
			}
			res.Histories++
			err = check(w.m.History())
		}
		if err != nil {
			res.Violation, res.Err = w.m.History(), fmt.Errorf("%w\nschedule: %s", err, schedule(path))
			return false
		}
		return true
	}
	dfs(nil)
	return res
}

// schedule renders a path for a violation report.
func schedule(path []action) string {
	steps := make([]string, len(path))
	for i, a := range path {
		steps[i] = a.String()
	}
	return strings.Join(steps, "; ")
}

// CheckReaders returns the check for reader configurations: well-formed
// under Section 7 (readers, named R…, take their timestamps at their
// start) and hybrid atomic, every committed transaction — readers too —
// serialized at its timestamp.
func CheckReaders(sp spec.Spec) func(histories.History) error {
	specs := histories.SpecMap{"X": sp}
	isReadOnly := func(tx histories.TxID) bool { return strings.HasPrefix(string(tx), "R") }
	return func(h histories.History) error {
		if err := histories.WellFormedReadOnly(h, isReadOnly); err != nil {
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
