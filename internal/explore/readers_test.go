package explore

import (
	"testing"

	"hybridcc/internal/adt"
	"hybridcc/internal/depend"
	"hybridcc/internal/spec"
)

// The reader configurations check Section 7 as internal/core implements
// it: update transactions draw from a tstamp.Source and merge later,
// readers pin, load, raise to a ReadStamp stamp, read and end, and folds
// run anywhere.  They fail under these mutations, each report naming the
// schedule that broke:
//
//   - swap pin and draw: readerSteps = {load, pin, raise}.  A reader loads,
//     a writer commits above it and a fold moves the writer into the
//     version before the pin; the reader then reads it ("not hybrid
//     atomic").  Ten steps: Counter and Windows find it.
//   - fold past an open pin: lockmachine's foldHorizon skips the readers.
//     A writer that commits above an open reader is folded and read ("not
//     hybrid atomic").  Counter and Windows.
//   - a reader stamp equal to or below the last writer timestamp:
//     tstamp.Source.ReadStamp computes `next := max(int64(last)+1, lo)`.
//     The first stamp of slot 0 is the clock itself, a writer's timestamp
//     ("already used by").  All three.
//   - no tie-break: ReadStamp ignores last.  Two readers that hold slot 0
//     one after the other in one gap get one stamp ("already used by").
//     Counter, the one with two readers.
//
// CI runs them without -race in the "Explorer (readers)" step; under -race
// the deeper ones run a step shallower (raceEnabled).

func counterReaders(txs, readers, depth int) Config {
	return Config{
		Spec:            adt.NewCounter(),
		Conflict:        depend.SymmetricClosure(depend.CounterDependency()),
		Invocations:     []spec.Invocation{adt.IncInv(1)},
		ReadInvocations: []spec.Invocation{adt.CtrReadInv()},
		Txs:             txs,
		Readers:         readers,
		Depth:           depth,
	}
}

func mustExplore(t *testing.T, cfg Config, min int) {
	t.Helper()
	res := Run(cfg, CheckReaders(cfg.Spec))
	if res.Err != nil {
		t.Fatalf("violation after %d histories: %v\n%s", res.Histories, res.Err, res.Violation)
	}
	if res.Histories < min {
		t.Errorf("explored only %d histories; exploration looks truncated", res.Histories)
	}
	t.Logf("explored %d histories at depth %d", res.Histories, cfg.Depth)
}

// TestExhaustiveReadersCounter: one writer beside two readers, which share
// a slot when they run one after the other.
func TestExhaustiveReadersCounter(t *testing.T) {
	mustExplore(t, counterReaders(1, 2, 10), 100000)
}

// TestExhaustiveReadersWindows: two writers whose commit windows overlap
// and merge in either order, beside one reader.
func TestExhaustiveReadersWindows(t *testing.T) {
	depth := 10
	if raceEnabled {
		depth = 9
	}
	mustExplore(t, counterReaders(2, 1, depth), 50000)
}

// TestExhaustiveReadersFile: the same with blind writes, whose order the
// reader sees.
func TestExhaustiveReadersFile(t *testing.T) {
	depth := 9
	if raceEnabled {
		depth = 8
	}
	mustExplore(t, Config{
		Spec:            adt.NewFile(),
		Conflict:        depend.SymmetricClosure(depend.FileDependency()),
		Invocations:     []spec.Invocation{adt.FileWriteInv(1), adt.FileWriteInv(2)},
		ReadInvocations: []spec.Invocation{adt.FileReadInv()},
		Txs:             2,
		Readers:         1,
		Depth:           depth,
	}, 50000)
}
