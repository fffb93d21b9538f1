package core

import (
	"fmt"
	"sort"
	"sync/atomic"

	"hybridcc/internal/histories"
	"hybridcc/internal/spec"
)

// versions is an object's committed state: the version the fold compacted
// (Section 6), the committed intentions not yet folded into it, and the
// published snapshot Section 7's read-only transactions read.  Its object's
// mutex guards it, except tailSnap and windowWriters, which readers load
// without the mutex (committers move windowWriters around their merge).
// Only its own methods write the rest: mergeLocked (a commit, live or
// replayed), forgetLocked (the fold), publishLocked, committedTailLocked
// (the tail cache), resetLocked (a checkpoint image), init and
// dropRetainedLocked.
//
// Generations.  commitGen counts the merges; a state derived from the
// committed tail records the generation it was derived at, and is the
// current tail's exactly while that generation is commitGen.  A fold moves
// entries from unforgotten into version without changing the tail, so it
// moves no generation, and neither does an abort.
//
//	derived state       current while                  written by
//	tailState           tailGen == commitGen           mergeLocked (in order), committedTailLocked, resetLocked
//	txLock.view         viewGen == commitGen and       the grant, viewStateLocked
//	                    viewOps == len(txLock.ops)
//	tailSnap.tail       always, under the mutex        publishLocked, in every critical section that
//	                                                   merges, folds or resets
type versions struct {
	// What a lock-free read loads comes first (see Object).
	sp spec.Spec
	// tailSnap is the published committed-tail snapshot: an immutable
	// picture of (version, unforgotten, tail state, clock) republished under
	// the mutex whenever the committed tail changes (commit) or its
	// representation shifts (fold), and read lock-free by ReadCall.
	tailSnap atomic.Pointer[tailSnapshot]
	// windowWriters counts transactions inside their commit window at this
	// object: incremented before the committing transaction draws its
	// timestamp, decremented after its intentions merge here and the new
	// snapshot is published.  A reader whose timestamp predates its own
	// registration observes 0 only when every commit that could serialize
	// below it is already in the published snapshot — the lock-free
	// counterpart of mergeBelowLocked's commit-window check.
	windowWriters atomic.Int64
	// retain keeps, when set (durable, no DurableSpec), in retained what the
	// fold moved into version since the last checkpoint image took it.
	retain bool

	// version is the compacted committed prefix: the state reached by the
	// intentions of forgotten committed transactions (Section 6).
	version spec.State
	// unforgotten holds committed transactions not yet folded into
	// version, sorted by timestamp.
	unforgotten []committedEntry
	retained    []committedEntry
	// clock is the largest commit timestamp this object has seen.
	clock histories.Timestamp
	// folded is the fold frontier: every committed transaction with
	// timestamp strictly below it has been folded into version, and no
	// future commit can land below it (monotone — see forgetLocked).  A
	// checkpoint records it as its image's horizon.
	folded histories.Timestamp

	// commitGen counts merges; tailState is the committed-tail state as of
	// tailGen (see the table above).
	commitGen uint64
	tailGen   uint64
	tailState spec.State
}

type committedEntry struct {
	ts    histories.Timestamp
	tx    histories.TxID
	parts int // the commit record's participant count
	ops   []spec.Op
}

// init makes v the initial state of sp, published.
func (v *versions) init(sp spec.Spec, retain bool) {
	v.sp, v.retain = sp, retain
	v.version, v.tailState = sp.Init(), sp.Init()
	v.publishLocked(new(tailSnapshot))
}

// tailSnapshot is the immutable committed-tail picture behind the
// lock-free reader path.  Publication invariants:
//
//   - every field is immutable after publication: version/tail are spec
//     states (never mutated by contract), committedEntry values are never
//     rewritten once inserted, and unforgotten shares the live backing
//     array under a copy-on-write discipline — in-order commits append
//     past every published window's end, the fold advances the live
//     slice's start (the prefix stays reachable for at most the array's
//     capacity in commits, or foldedPrefixMax entries), and the rare
//     mid-slice insert (external timestamps arriving out of order)
//     replaces the array instead of shifting shared elements;
//   - a new snapshot is stored (under the mutex) before the committing
//     transaction's windowWriters count is released, so a reader that
//     observes windowWriters == 0 also observes every commit that could
//     serialize below its timestamp;
//   - folds republish: the fold moves entries from unforgotten into
//     version without changing the tail state, and active readers pin the
//     compaction horizon at their timestamps, so both the old and the new
//     snapshot reconstruct any active reader's state;
//   - a commit's snapshots come in one block, a slot per object it merges
//     at (commitTx), while aborts, folds and recovery allocate one each.
//     A block lives while any of its snapshots is some object's current
//     snapshot (or a reader still holds one), so each object pins at most
//     one block.
type tailSnapshot struct {
	version     spec.State
	unforgotten []committedEntry
	tail        spec.State
	clock       histories.Timestamp
}

// stateAt reconstructs the committed state as of ts from the snapshot:
// the folded version plus unforgotten intentions with earlier timestamps.
func (s *tailSnapshot) stateAt(sp spec.Spec, ts histories.Timestamp) spec.State {
	if ts >= s.clock {
		return s.tail // at or past the newest commit this object has seen
	}
	if n := len(s.unforgotten); n == 0 || s.unforgotten[n-1].ts <= ts {
		return s.tail
	}
	state := s.version
	ok := true
	for _, e := range s.unforgotten {
		if e.ts > ts {
			break
		}
		state, ok = spec.StepFrom(sp, state, e.ops...)
		if !ok {
			panic("hybridcc: illegal snapshot replay")
		}
	}
	return state
}

// snapshotLocked returns the committed state as of ts.  Every critical
// section that changes the committed tail republishes it before releasing
// the mutex, so under the mutex the published snapshot is the live state:
// both read paths answer from it and cannot drift apart.
func (v *versions) snapshotLocked(ts histories.Timestamp) spec.State {
	return v.tailSnap.Load().stateAt(v.sp, ts)
}

// publishLocked publishes the committed-tail snapshot into snap, a slot
// nobody has published yet (commitTx hands each object its slot of one
// block).  Call after every change to version/unforgotten (merge, fold,
// reset).  The unforgotten slice is shared, not copied — the copy-on-write
// discipline documented on tailSnapshot keeps every element below the
// published length immutable — so publication is O(1), not O(tail length).
func (v *versions) publishLocked(snap *tailSnapshot) {
	*snap = tailSnapshot{
		version:     v.version,
		unforgotten: v.unforgotten,
		tail:        v.committedTailLocked(),
		clock:       v.clock,
	}
	v.tailSnap.Store(snap)
}

// committedTailLocked returns the state of the committed tail — the
// compacted version followed by unforgotten committed intentions in
// timestamp order — recomputing the cache only when a commit has landed
// since it was last valid.  Commits that append in timestamp order extend
// the cache incrementally; only out-of-order (externally timestamped)
// commits force a replay.
func (v *versions) committedTailLocked() spec.State {
	if v.tailGen != v.commitGen {
		state := v.version
		ok := true
		for _, e := range v.unforgotten {
			state, ok = spec.StepFrom(v.sp, state, e.ops...)
			if !ok {
				panic(fmt.Sprintf("hybridcc: illegal committed intentions of %s on a %s", e.tx, v.sp.Name()))
			}
		}
		v.tailState = state
		v.tailGen = v.commitGen
	}
	return v.tailState
}

// mergeLocked merges e into the committed tail at its timestamp: the
// commit event of the LOCK machine, for the commit path and recovery
// replay alike.  after, when not nil, is the state e's operations produce
// on the current tail — the committing transaction's cached view, or
// replay's validated step — and spares the merge that step.  The caller
// republishes the snapshot.
func (v *versions) mergeLocked(e committedEntry, after spec.State) {
	n := len(v.unforgotten)
	if n == 0 || v.unforgotten[n-1].ts <= e.ts {
		// In order — the only case with the system clock: append past every
		// published snapshot's end (their elements stay untouched in the
		// shared array) and extend the tail cache instead of invalidating
		// it.  The array grows by hand: a fold that empties the slice leaves
		// no capacity, and append would start over at one element per commit.
		if n == cap(v.unforgotten) {
			v.unforgotten = append(make([]committedEntry, 0, 2*n+8), v.unforgotten...)
		}
		v.unforgotten = append(v.unforgotten, e)
		if v.tailGen == v.commitGen {
			if after == nil {
				var ok bool
				if after, ok = spec.StepFrom(v.sp, v.tailState, e.ops...); !ok {
					panic(fmt.Sprintf("hybridcc: illegal committed intentions of %s on a %s", e.tx, v.sp.Name()))
				}
			}
			v.tailState = after
			v.tailGen = v.commitGen + 1
		}
	} else {
		// Out of order (external timestamps): copy-on-write, because a
		// shift would rewrite elements published snapshots still expose.
		// The tail cache goes stale; committedTailLocked replays it.
		i := sort.Search(n, func(i int) bool { return v.unforgotten[i].ts > e.ts })
		u := make([]committedEntry, n+1)
		copy(u, v.unforgotten[:i])
		u[i] = e
		copy(u[i+1:], v.unforgotten[i:])
		v.unforgotten = u
	}
	v.commitGen++
	if e.ts > v.clock {
		v.clock = e.ts
	}
}

// foldedPrefixMax is the largest fold that leaves the unforgotten array be.
const foldedPrefixMax = 64

// forgetLocked folds committed intentions below horizon into the version —
// the appendix's forget() — and reports how many entries it folded.  The
// caller's horizon is the minimum lower bound among active transactions
// (+∞ when none) and reader pins: any transaction yet to commit must choose
// a timestamp above its bound, so entries strictly below every bound can
// never be preceded by a new commit, and readers keep their snapshots
// reconstructible.  Folding moves entries across the version/unforgotten
// boundary without changing the committed-tail state, so tail and view
// caches stay valid — but the caller must republish the tail snapshot.
func (v *versions) forgetLocked(horizon histories.Timestamp) int {
	n := 0
	if u := len(v.unforgotten); u > 0 && v.unforgotten[u-1].ts < horizon && v.tailGen == v.commitGen {
		// The horizon passes every entry: the version is the tail.
		v.version, n = v.tailState, u
	}
	for n < len(v.unforgotten) && v.unforgotten[n].ts < horizon {
		state, ok := spec.StepFrom(v.sp, v.version, v.unforgotten[n].ops...)
		if !ok {
			panic(fmt.Sprintf("hybridcc: illegal fold of %s on a %s", v.unforgotten[n].tx, v.sp.Name()))
		}
		v.version = state
		n++
	}
	if n > 0 {
		if v.retain {
			v.retained = append(v.retained, v.unforgotten[:n]...)
		}
		// Advance: published windows stay as they are, and the folded
		// prefix stays reachable for the array's capacity in commits — too
		// long for a drained backlog (a reader pin let go), which moves.
		if v.unforgotten = v.unforgotten[n:]; n > foldedPrefixMax {
			v.unforgotten = append(make([]committedEntry, 0, len(v.unforgotten)+8), v.unforgotten...)
		}
	}
	// Advance the fold frontier even when nothing folded: every entry with
	// timestamp < min(horizon, clock+1) is in version (there are none left
	// below the horizon), and no future commit lands there — an active
	// transaction commits above its bound ≥ horizon, and a transaction yet
	// to execute here will record bound = clock at grant, committing at
	// clock+1 or later.  Capping at clock+1 keeps the frontier finite when
	// the object is quiescent (horizon = +∞).
	f := horizon
	if c := v.clock + 1; c < f {
		f = c
	}
	if f > v.folded {
		v.folded = f
	}
	return n
}

// resetLocked installs a checkpoint image as the committed version: the
// fold frontier and commit clock advance to the checkpoint's (never
// backwards), and the committed tail starts empty — the entries above the
// frontier replay on top through mergeLocked.  The caller republishes.
func (v *versions) resetLocked(state spec.State, folded, clock histories.Timestamp) {
	v.version, v.unforgotten = state, nil
	v.commitGen++
	v.tailState, v.tailGen = state, v.commitGen
	v.folded = max(v.folded, folded)
	v.clock = max(v.clock, clock)
}

// dropRetainedLocked forgets the n retained entries a published image
// holds.
func (v *versions) dropRetainedLocked(n int) {
	v.retained = append([]committedEntry(nil), v.retained[n:]...)
}
