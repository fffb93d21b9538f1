package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"hybridcc/internal/adt"
	"hybridcc/internal/baseline"
	"hybridcc/internal/histories"
	"hybridcc/internal/spec"
	"hybridcc/internal/verify"
)

// The update path computes a transaction's effect on an object once — the
// Step of the grant — and then carries the state: the merge adopts the view
// the last grant cached as the new committed tail, and a fold that passes
// every unforgotten entry adopts the tail as the new version.  Both are
// shortcuts for a replay, each behind a guard.  The tests below hold every
// shortcut to the replay it stands for and name the mutation of versions.go
// or locktable.go each case kills:
//
//   - cachedView without `lk.viewGen == gen`: a transaction
//     granted before another one's commit adopts a view that predates that
//     commit, and the commit that interleaved is lost from the tail — any
//     seed in which two transactions hold grants and commit one after the
//     other fails the tail comparison at the second commit;
//   - mergeLocked's own `v.tailGen == v.commitGen` has no killing
//     case: every Object.commit ends in publishLocked, which refreshes
//     the tail cache, so no merge starts on a stale one.  The guard makes
//     the merge right by itself, not by what its caller happens to do last;
//   - forgetLocked without `v.tailGen == v.commitGen`: an out-of-order
//     CommitAt by the only active transaction folds everything at once, and
//     the stale tail — which misses the entry just inserted — becomes the
//     version; those seeds fail the version ⊕ unforgotten comparison;
//   - forgetLocked adopting the tail although the horizon stops short
//     (`unforgotten[u-1].ts < horizon` dropped): with a second transaction
//     or a reader pin holding the horizon, entries above it leave
//     unforgotten although a commit may still land below them — caught by
//     the folded-entries-stay-below-the-horizon check and by Verify;
//   - the in-order test `unforgotten[n-1].ts <= e.ts` weakened to always
//     append: an out-of-order CommitAt lands at the end of the tail and the
//     replay in timestamp order diverges.
func TestUpdatePathShortcutsEqualReplay(t *testing.T) {
	for _, sp := range adt.All() {
		sp := sp
		t.Run(sp.Name(), func(t *testing.T) {
			for seed := int64(0); seed < 40; seed++ {
				runUpdatePathSchedule(t, sp, seed)
			}
		})
	}
}

// committedModel is the from-scratch reference: every committed
// transaction's operations, replayed from Init in timestamp order.
type committedModel struct {
	sp      spec.Spec
	entries []committedEntry
	used    map[histories.Timestamp]bool
}

func (m *committedModel) commit(ts histories.Timestamp, ops []spec.Op) {
	m.used[ts] = true
	if len(ops) == 0 {
		return // never granted anything: the object does not know the transaction
	}
	m.entries = append(m.entries, committedEntry{ts: ts, ops: ops})
	sort.Slice(m.entries, func(i, j int) bool { return m.entries[i].ts < m.entries[j].ts })
}

func (m *committedModel) state(t *testing.T) spec.State {
	t.Helper()
	s := m.sp.Init()
	for _, e := range m.entries {
		var ok bool
		if s, ok = spec.StepFrom(m.sp, s, e.ops...); !ok {
			t.Fatalf("model: committed operations illegal in timestamp order at %d", e.ts)
		}
	}
	return s
}

// newest returns the largest committed timestamp.
func (m *committedModel) newest() histories.Timestamp {
	if n := len(m.entries); n > 0 {
		return m.entries[n-1].ts
	}
	return 0
}

// checkObject compares everything the object derives from its committed
// transactions with the model's replay.
func (m *committedModel) checkObject(t *testing.T, o *Object, pins []*ReadTx, seed int64, after string) {
	t.Helper()
	want := m.state(t)
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.tailGen == o.commitGen && !m.sp.Equal(o.tailState, want) {
		t.Fatalf("seed %d after %s: cached tail %v, replay from Init gives %v", seed, after, o.tailState, want)
	}
	state := o.version
	for _, e := range o.unforgotten {
		var ok bool
		if state, ok = spec.StepFrom(m.sp, state, e.ops...); !ok {
			t.Fatalf("seed %d after %s: unforgotten entry at %d illegal on the version", seed, after, e.ts)
		}
	}
	if !m.sp.Equal(state, want) {
		t.Fatalf("seed %d after %s: version ⊕ unforgotten = %v, replay from Init gives %v", seed, after, state, want)
	}
	if got := o.committedTailLocked(); !m.sp.Equal(got, want) {
		t.Fatalf("seed %d after %s: committed tail %v, replay from Init gives %v", seed, after, got, want)
	}
	if snap := o.tailSnap.Load(); !m.sp.Equal(snap.tail, want) {
		t.Fatalf("seed %d after %s: published tail %v, replay from Init gives %v", seed, after, snap.tail, want)
	}
	// What left unforgotten sits where nothing can come before it any more:
	// at or below every active bound (a commit lands above its bound) and
	// below every open reader (whose snapshot is rebuilt from the version).
	if n := len(m.entries) - len(o.unforgotten); n > 0 {
		top := m.entries[n-1].ts
		for _, lk := range o.active {
			if top > lk.bound {
				t.Fatalf("seed %d after %s: entry at %d folded although a transaction may still commit above %d",
					seed, after, top, lk.bound)
			}
		}
		for _, r := range pins {
			if top >= r.Timestamp() {
				t.Fatalf("seed %d after %s: entry at %d folded under the reader pinned at %d",
					seed, after, top, r.Timestamp())
			}
		}
	}
}

func runUpdatePathSchedule(t *testing.T, sp spec.Spec, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	rec := verify.NewRecorder()
	sys := NewSystem(Options{LockWait: time.Millisecond, ExternalTimestamps: true, Sink: rec})
	name := sp.Name()
	obj := sys.NewObjectSeeded("X", sp, baseline.ConflictFor("hybrid", name), baseline.UniverseFor(name))
	var invs []spec.Invocation
	seen := map[spec.Invocation]bool{}
	for _, op := range baseline.UniverseFor(name) {
		if inv := op.Inv(); !seen[inv] {
			seen[inv] = true
			invs = append(invs, inv)
		}
	}
	model := &committedModel{sp: sp, used: map[histories.Timestamp]bool{}}

	type slot struct {
		tx  *Tx
		ops []spec.Op
	}
	var slots [3]slot
	var readers []*ReadTx

	// externalTS picks a CommitAt timestamp above lower: one that lands
	// mid-tail when a free one exists below the newest commit (and the coin
	// says so), otherwise one a few ticks past everything — the gaps are
	// what leaves room for later mid-tail inserts.
	externalTS := func(lower histories.Timestamp) (histories.Timestamp, bool) {
		if newest := model.newest(); rng.Intn(2) == 0 && newest > lower+1 {
			for try := 0; try < 8; try++ {
				ts := lower + 1 + histories.Timestamp(rng.Int63n(int64(newest-lower-1)))
				if !model.used[ts] {
					return ts, true
				}
			}
		}
		ts := sys.clock.Next(lower) + histories.Timestamp(1+rng.Intn(4))
		for model.used[ts] {
			ts++
		}
		return ts, false
	}
	finish := func(i int, how int) {
		s := &slots[i]
		after := ""
		switch how {
		case 0:
			if err := s.tx.Commit(); err != nil {
				t.Fatalf("seed %d: commit: %v", seed, err)
			}
			ts, _ := s.tx.Timestamp()
			model.commit(ts, s.ops)
			after = fmt.Sprintf("Commit at %d", ts)
		case 1:
			lower, err := s.tx.Prepare()
			if err != nil {
				t.Fatalf("seed %d: prepare: %v", seed, err)
			}
			ts, mid := externalTS(lower)
			if err := s.tx.CommitAt(ts); err != nil {
				t.Fatalf("seed %d: CommitAt(%d): %v", seed, ts, err)
			}
			model.commit(ts, s.ops)
			after = fmt.Sprintf("CommitAt(%d) mid-tail=%v", ts, mid)
		default:
			if err := s.tx.Abort(); err != nil {
				t.Fatalf("seed %d: abort: %v", seed, err)
			}
			after = "Abort"
		}
		*s = slot{}
		model.checkObject(t, obj, readers, seed, after)
	}

	for step := 0; step < 60; step++ {
		i := rng.Intn(len(slots))
		switch k := rng.Intn(12); {
		case k < 6: // a call
			s := &slots[i]
			if s.tx == nil {
				s.tx = sys.Begin()
			}
			inv := invs[rng.Intn(len(invs))]
			res, err := obj.Call(s.tx, inv)
			if errors.Is(err, ErrTimeout) {
				continue // blocked by another slot's lock, or on data
			}
			if err != nil {
				t.Fatalf("seed %d: %s: %v", seed, inv, err)
			}
			s.ops = append(s.ops, inv.With(res))
		case k < 9: // a completion
			if slots[i].tx != nil {
				finish(i, k-6)
			}
		case k < 10: // a read-only pin opens
			if len(readers) < 2 {
				r := sys.BeginReadOnly()
				model.used[r.Timestamp()] = true
				readers = append(readers, r)
			}
		default: // the oldest pin closes
			if len(readers) > 0 {
				if err := readers[0].Commit(); err != nil {
					t.Fatalf("seed %d: reader commit: %v", seed, err)
				}
				readers = readers[1:]
				// The pin held no fold back that a later commit cannot
				// redo; a fold pass now must leave the same state.
				obj.fold()
				model.checkObject(t, obj, readers, seed, "reader Commit")
			}
		}
	}
	for i := range slots {
		if slots[i].tx != nil {
			finish(i, rng.Intn(3))
		}
	}
	for _, r := range readers {
		if err := r.Commit(); err != nil {
			t.Fatalf("seed %d: reader commit: %v", seed, err)
		}
	}
	obj.fold()
	model.checkObject(t, obj, nil, seed, "the last fold")
	if n := obj.UnforgottenLen(); n != 0 {
		t.Errorf("seed %d: %d entries unforgotten with nothing active", seed, n)
	}
	if err := verify.CheckHybridAtomic(rec.History(), histories.SpecMap{obj.name: sp}); err != nil {
		t.Fatalf("seed %d: history not hybrid atomic: %v", seed, err)
	}
}

// boundClock issues lower+1 and remembers nothing: the timestamp it hands a
// committer is above that committer's bound and owes nothing else to
// earlier draws, so an ordering between two commits holds only if the bound
// carried it.
type boundClock struct{}

func (boundClock) Next(lower histories.Timestamp) histories.Timestamp { return lower + 1 }
func (boundClock) Observe(histories.Timestamp)                        {}

// scanBound is the per-object scan Tx.bound replaced: the largest bound in
// any lock record tx holds.
func scanBound(tx *Tx, objs ...*Object) histories.Timestamp {
	var lower histories.Timestamp
	for _, o := range objs {
		o.mu.Lock()
		if lk := o.lockOf(tx); lk != nil && lk.bound > lower {
			lower = lk.bound
		}
		o.mu.Unlock()
	}
	return lower
}

// TestCommitTimestampAboveEveryBound: B is granted at Y, A commits at X, B
// is granted at X.  B saw A's commit at X, so B must serialize after A —
// the paper's precedes ⊆ TS — and the only thing that says so is the bound
// B's second grant recorded.  Kills: keeping the first grant's bound
// instead of the running maximum (B would draw A's timestamp or one below
// it), and a Prepare that reports anything but what the scan of the lock
// records found.
func TestCommitTimestampAboveEveryBound(t *testing.T) {
	for _, e := range []struct {
		name   string
		commit func(tx *Tx, lower histories.Timestamp) error
	}{
		{"Commit", func(tx *Tx, _ histories.Timestamp) error { return tx.Commit() }},
		{"CommitAt", func(tx *Tx, lower histories.Timestamp) error {
			got, err := tx.Prepare()
			if err != nil {
				return err
			}
			if got != lower {
				return fmt.Errorf("Prepare reports bound %d, the lock records say %d", got, lower)
			}
			return tx.CommitAt(got + 1)
		}},
	} {
		t.Run(e.name, func(t *testing.T) {
			sys := NewSystem(Options{Clock: boundClock{}, ExternalTimestamps: true})
			x, y := accountNamed(sys, "X"), accountNamed(sys, "Y")
			for i := 0; i < 3; i++ { // move X's clock off zero
				credit(t, sys, x, 1)
			}
			a, b := sys.Begin(), sys.Begin()
			mustCall(t, y, b, adt.CreditInv(1))
			mustCall(t, x, a, adt.CreditInv(1))
			if err := a.Commit(); err != nil {
				t.Fatal(err)
			}
			tsA, _ := a.Timestamp()
			mustCall(t, x, b, adt.CreditInv(1))
			lower := scanBound(b, x, y)
			if lower != tsA {
				t.Fatalf("lock records bound B at %d, want A's timestamp %d", lower, tsA)
			}
			if b.bound != lower {
				t.Errorf("running bound %d, per-object scan %d", b.bound, lower)
			}
			if err := e.commit(b, lower); err != nil {
				t.Fatal(err)
			}
			if tsB, _ := b.Timestamp(); tsB <= tsA {
				t.Errorf("B committed at %d, not above A's %d", tsB, tsA)
			}
		})
	}
}

// TestAbortUnderCallInFlight is the -race regression for the object list:
// Abort does not wait for a call in flight, so a first grant (which joins
// the object to the transaction's list) can land while Abort reads the
// list — DTx.Commit aborts a busy branch this way, and a wire Abort can
// arrive on another connection.  The transaction holds eight Accounts, so
// the Queue it is blocked at is the ninth object and moves the list off
// its inline buffer.  Mutations killed: grantLocked appending to tx.objs
// itself (a write under o.mu against Abort's read — the race detector
// reports it in "racing"); exit entering the object after the transaction
// ended, or not releasing it (the lock record outlives the transaction:
// Active stays 1 in "grant after abort" and the next Deq waits forever).
func TestAbortUnderCallInFlight(t *testing.T) {
	for _, e := range []struct {
		name      string
		abortDone bool // Abort returns before the producer commits
	}{
		{"grant after abort", true},
		{"racing", false},
	} {
		t.Run(e.name, func(t *testing.T) {
			for round := 0; round < 20; round++ {
				sys, q := queueSystem(Options{LockWait: 5 * time.Second})
				tx := sys.Begin()
				for i := 0; i < len(tx.objBuf); i++ {
					mustCall(t, accountNamed(sys, fmt.Sprintf("A%d", i)), tx, adt.CreditInv(1))
				}
				called := make(chan error, 1)
				go func() {
					_, err := q.Call(tx, adt.DeqInv())
					called <- err
				}()
				for q.Stats().Waits == 0 { // tx is parked on the empty queue
					time.Sleep(time.Millisecond)
				}
				produced := make(chan struct{})
				produce := func() {
					defer close(produced)
					p := sys.Begin()
					if _, err := q.Call(p, adt.EnqInv(7)); err != nil {
						t.Error(err)
					}
					if err := p.Commit(); err != nil {
						t.Error(err)
					}
				}
				if e.abortDone {
					if err := tx.Abort(); err != nil {
						t.Fatal(err)
					}
					produce()
				} else {
					go produce()
					if err := tx.Abort(); err != nil {
						t.Fatal(err)
					}
				}
				<-produced
				if err := <-called; err != nil {
					t.Fatalf("round %d: Deq in flight: %v", round, err)
				}
				for _, o := range sys.Objects() {
					if n := o.Stats().Active; n != 0 {
						t.Fatalf("round %d: %s keeps %d lock record(s) of the aborted transaction", round, o.Name(), n)
					}
				}
				next := sys.Begin()
				if res := mustCall(t, q, next, adt.DeqInv()); res != "7" {
					t.Fatalf("round %d: Deq after the abort = %s, want 7", round, res)
				}
				if err := next.Commit(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// blockingShard is a RemoteShard whose Call on object "B" blocks until the
// transaction's Abort reaches the shard; the methods the test does not
// drive stay nil.
type blockingShard struct {
	RemoteShard
	entered, aborted chan struct{}
}

func (s *blockingShard) Register(string, string, string) error { return nil }

func (s *blockingShard) Call(_ context.Context, _ histories.TxID, obj histories.ObjID, _ spec.Invocation) (string, error) {
	if obj == "B" {
		close(s.entered)
		<-s.aborted
	}
	return adt.ResOk, nil
}

func (s *blockingShard) Abort(context.Context, histories.TxID) error {
	close(s.aborted)
	return nil
}

// TestRemoteAbortUnderCallInFlight is the stub's half of the same race:
// remoteCall enters the object in the list while remoteAbort's completion
// events read and sort it.  Without mu on both sides the race detector
// reports the append against the sort.
func TestRemoteAbortUnderCallInFlight(t *testing.T) {
	shard := &blockingShard{entered: make(chan struct{}), aborted: make(chan struct{})}
	sys := NewRemoteSystem(shard, Options{Sink: verify.NewRecorder()})
	a, b := accountNamed(sys, "A"), accountNamed(sys, "B")
	tx := sys.Begin()
	mustCall(t, a, tx, adt.DebitInv(1))
	called := make(chan error, 1)
	go func() {
		_, err := b.Call(tx, adt.DebitInv(1))
		called <- err
	}()
	<-shard.entered
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := <-called; err != nil {
		t.Fatal(err)
	}
}

// TestDrainedBacklogLeavesItsArray pins how long folded entries stay
// reachable: the fold advances the unforgotten slice instead of copying it,
// so a folded prefix lives on in the array — but a backlog a reader pin
// built up must not, once the pin lets go.  Mutation killed: forgetLocked
// advancing whatever the fold's size (the array of the whole backlog, and
// every intentions slice it references, outlives the drain by as many
// commits as the backlog was long).
func TestDrainedBacklogLeavesItsArray(t *testing.T) {
	sys, acc := accountSystem(Options{})
	pin := sys.BeginReadOnly()
	const backlog = 4 * foldedPrefixMax
	for i := 0; i < backlog; i++ {
		credit(t, sys, acc, 1)
	}
	if n := acc.Stats().Unforgotten; n < backlog {
		t.Fatalf("the pin held %d entries unforgotten, want %d", n, backlog)
	}
	if err := pin.Commit(); err != nil {
		t.Fatal(err)
	}
	credit(t, sys, acc, 1) // the fold rides the commit path
	acc.mu.Lock()
	n, c := len(acc.unforgotten), cap(acc.unforgotten)
	acc.mu.Unlock()
	if n > 1 || c > foldedPrefixMax {
		t.Errorf("after the drain: %d unforgotten, array capacity %d (want ≤ 1 and ≤ %d)", n, c, foldedPrefixMax)
	}
}
