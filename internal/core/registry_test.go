package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hybridcc/internal/adt"
	"hybridcc/internal/baseline"
	"hybridcc/internal/depend"
	"hybridcc/internal/histories"
	"hybridcc/internal/spec"
	"hybridcc/internal/tstamp"
	"hybridcc/internal/verify"
)

// This file tests the lock-free reader registry (readerRegistry): the
// pin-before-load ordering, slot reuse and growth under concurrent readers,
// and the release of every pin.  Run with -race and -cpu 1,4, as CI does.

// parkClock is a tstamp.Source whose next reader stamp, once armed, parks
// after the clock is loaded and before ReadStamp returns: the reader holds
// a timestamp that nothing it does afterwards has happened yet.
type parkClock struct {
	tstamp.Source
	armed  atomic.Bool
	drawn  chan struct{}
	resume chan struct{}
}

func (c *parkClock) ReadStamp(slot uint64, last histories.Timestamp) (histories.Timestamp, bool) {
	ts, ok := c.Source.ReadStamp(slot, last)
	if c.armed.CompareAndSwap(true, false) {
		close(c.drawn)
		<-c.resume
	}
	return ts, ok
}

// TestReaderPinsBeforeDraw parks a reader between its provisional pin and
// the moment it learns its timestamp r — after ReadStamp's load of the
// clock — while a writer commits at w > r and folds.  The provisional pin
// must hold the writer's entry out of the version, so the reader still
// reconstructs the state as of r.
//
// Mutation: in startRead, load before the pin — call
// `s.stamps.ReadStamp(tx.hint, 0)` above `s.readers.pin(tx.hint)`.  The
// writer's fold scan then finds no reader, folds w into the version, and
// this test fails with "unforgotten = 0" and "read = 15".
func TestReaderPinsBeforeDraw(t *testing.T) {
	clk := &parkClock{drawn: make(chan struct{}), resume: make(chan struct{})}
	sys := NewSystem(Options{Clock: clk})
	c := sys.NewObject("C", adt.NewCounter(), depend.SymmetricClosure(depend.CounterDependency()))
	inc := func(n int64) {
		t.Helper()
		w := sys.Begin()
		mustCall(t, c, w, adt.IncInv(n))
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	inc(10)

	clk.armed.Store(true)
	began := make(chan *ReadTx)
	go func() { began <- sys.BeginReadOnly() }()
	<-clk.drawn

	inc(5) // draws w above the parked reader's r, merges, folds
	if n := c.UnforgottenLen(); n != 1 {
		t.Errorf("unforgotten = %d, want 1: the provisional pin must hold the later commit out of the version", n)
	}

	close(clk.resume)
	r := <-began
	got, err := c.ReadCall(r, adt.CtrReadInv())
	if err != nil {
		t.Fatal(err)
	}
	if got != "10" {
		t.Errorf("read = %s, want 10 (the writer serialized after the reader)", got)
	}
	if err := r.Commit(); err != nil {
		t.Fatal(err)
	}
	inc(1)
	if n := c.UnforgottenLen(); n != 0 {
		t.Errorf("unforgotten after the reader closed = %d, want 0", n)
	}
}

// TestReaderRegistryStress runs 8 reader goroutines — begin, read, re-read,
// finish — beside writers that commit and fold the same Zipf-hot counters.
// Both reads of one reader agree, the recorded history is hybrid atomic,
// the readers outgrow the registry's initial capacity, and once everyone
// has finished no pin is left: every object folds to nothing.
func TestReaderRegistryStress(t *testing.T) {
	const (
		objects    = 6
		readers    = 8
		writers    = 3
		txPerGorou = 40
	)
	rec := verify.NewRecorder()
	sys := NewSystem(Options{Sink: rec, LockWait: 2 * time.Second})
	specs := histories.SpecMap{}
	objs := make([]*Object, objects)
	for i := range objs {
		name := fmt.Sprintf("c%d", i)
		objs[i] = sys.NewObjectSeeded(name, adt.NewCounter(),
			depend.SymmetricClosure(depend.CounterDependency()), baseline.UniverseFor("Counter"))
		specs[histories.ObjID(name)] = adt.NewCounter()
	}
	read := func(r *ReadTx, o *Object) string {
		res, err := o.ReadCall(r, adt.CtrReadInv())
		if err != nil {
			t.Errorf("read of %s: %v", o.Name(), err)
		}
		return res
	}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			zipf := rand.NewZipf(rand.New(rand.NewSource(int64(w))), 1.1, 1, objects-1)
			for n := 0; n < txPerGorou; n++ {
				tx := sys.Begin()
				for k := 0; k < 2; k++ {
					if _, err := objs[zipf.Uint64()].Call(tx, adt.IncInv(1)); err != nil {
						t.Errorf("writer %d: %v", w, err)
					}
				}
				if err := tx.Commit(); err != nil {
					t.Errorf("writer %d: %v", w, err)
				}
			}
		}(w)
	}
	// Every reader goroutine first holds two readers open until all of them
	// do: 16 at once, twice the initial capacity.
	var open sync.WaitGroup
	open.Add(readers)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			zipf := rand.NewZipf(rand.New(rand.NewSource(int64(100+g))), 1.1, 1, objects-1)
			for n := 0; n < txPerGorou; n++ {
				outer, inner := sys.BeginReadOnly(), sys.BeginReadOnly()
				if n == 0 {
					open.Done()
					open.Wait()
				}
				a, b := objs[zipf.Uint64()], objs[zipf.Uint64()]
				first, other := read(outer, a), read(inner, b)
				if again := read(outer, a); again != first {
					t.Errorf("reader %s read %s then %s from %s", outer.ID(), first, again, a.Name())
				}
				if again := read(inner, b); again != other {
					t.Errorf("reader %s read %s then %s from %s", inner.ID(), other, again, b.Name())
				}
				if err := inner.Commit(); err != nil {
					t.Error(err)
				}
				if n%4 == 0 {
					_ = outer.Abort()
				} else if err := outer.Commit(); err != nil {
					t.Error(err)
				}
			}
		}(g)
	}
	wg.Wait()

	if head := sys.readers.head.Load(); head == nil || head.next.Load() == nil {
		t.Errorf("registry never grew past its initial %d slots", readerSlots)
	}
	if min := sys.readers.minTS(); min != slotFree {
		t.Errorf("a pin is left at %d after every reader finished", min)
	}
	// Folding rides the commit path: one last commit everywhere drains it.
	tx := sys.Begin()
	for _, o := range objs {
		mustCall(t, o, tx, adt.IncInv(1))
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	for _, o := range objs {
		if n := o.UnforgottenLen(); n != 0 {
			t.Errorf("%s: unforgotten after the drain = %d, want 0", o.Name(), n)
		}
	}
	isReadOnly := func(id histories.TxID) bool { return strings.HasPrefix(string(id), "R") }
	if err := verify.CheckGeneralizedHybridAtomic(rec.History(), specs, isReadOnly); err != nil {
		t.Fatal(err)
	}
}

// TestPooledReaderLifecycle pins the pooled-handle contract: a recycled
// struct comes back as a new generation with nothing of the previous one,
// and a handle kept past RecycleRead is dead.
func TestPooledReaderLifecycle(t *testing.T) {
	rec := verify.NewRecorder()
	sys, c := counterSystem(Options{Sink: rec})
	first := sys.BeginReadOnlyPooledCtx(nil)
	if _, err := c.ReadCall(first, adt.CtrReadInv()); err != nil {
		t.Fatal(err)
	}
	sys.RecycleRead(first) // still active: left alone
	if first.done() {
		t.Fatal("RecycleRead finished an active reader")
	}
	id, gen := first.ID(), first.state.Load()>>1
	if err := first.Commit(); err != nil {
		t.Fatal(err)
	}
	sys.RecycleRead(first)
	if _, err := c.ReadCall(first, adt.CtrReadInv()); !errors.Is(err, ErrTxDone) {
		t.Errorf("read through a recycled handle: %v, want ErrTxDone", err)
	}
	if err := first.Abort(); !errors.Is(err, ErrTxDone) {
		t.Errorf("abort of a recycled handle: %v, want ErrTxDone", err)
	}

	// sync.Pool may drop the struct (under -race it does so at random);
	// what reuse must reset is asserted only when reuse happened.
	second := sys.BeginReadOnlyPooledCtx(nil)
	if second == first {
		if g := second.state.Load() >> 1; g != gen+1 {
			t.Errorf("generation = %d after reuse, want %d", g, gen+1)
		}
		if second.ID() == id || len(second.touched) != 0 || second.calls != 0 {
			t.Errorf("reused reader inherits id=%s touched=%d calls=%d", second.ID(), len(second.touched), second.calls)
		}
	}
	if err := second.Abort(); err != nil {
		t.Fatal(err)
	}
	sys.RecycleRead(second)
	if st := sys.Stats(); st.Begun != 2 || st.Committed != 1 || st.Aborted != 1 || st.Calls != 1 {
		t.Errorf("stats = %+v, want begun 2, committed 1, aborted 1, calls 1", st)
	}
}

// TestSlotHintFollowsClaimedSlot: two readers whose slot searches start at
// the same slot meet there once.  The one that finds it taken moves on, and
// because the hint follows the slot actually claimed, every later pin of
// either reader claims the first slot it probes — its own.
//
// Mutation: keep the hint fixed (`tx.slot, _ = s.readers.pin(tx.hint)`) and
// the loser probes the winner's slot on every snapshot, for as long as the
// two structs live.
func TestSlotHintFollowsClaimedSlot(t *testing.T) {
	sys, _ := counterSystem(Options{})
	a, b := &ReadTx{sys: sys}, &ReadTx{sys: sys}
	firstProbe := func(r *ReadTx) *readerSlot {
		head := sys.readers.head.Load()
		return &head.slots[r.hint%uint64(len(head.slots))]
	}
	finish := func(r *ReadTx) {
		t.Helper()
		if err := r.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range []*ReadTx{a, b} { // each reserves its block and finds a slot
		sys.startRead(r, nil, readSeqBlock)
		finish(r)
	}
	b.hint = a.hint // the collision: both searches start at one slot

	sys.startRead(a, nil, readSeqBlock)
	sys.startRead(b, nil, readSeqBlock) // probes a's slot, moves on
	if a.slot == b.slot {
		t.Fatal("two active readers share a slot")
	}
	finish(a)
	finish(b)
	for i := 0; i < 4; i++ { // from the second pin on, in either order, one probe each
		first, second := a, b
		if i%2 == 1 {
			first, second = b, a
		}
		for _, r := range []*ReadTx{first, second} {
			want := firstProbe(r)
			sys.startRead(r, nil, readSeqBlock)
			if r.slot != want {
				t.Errorf("round %d: reader claimed a slot other than the first it probed (hint %d)", i, r.hint)
			}
		}
		finish(first)
		finish(second)
	}
}

// TestReaderSeqBlocksStayUnique begins readers from several goroutines —
// recycled structs that draw their numbers a block at a time and cross a
// block boundary, plain ones that draw one — beside update transactions
// drawing from the same txSeq, with a recorder attached: every R<seq>
// identifier in the history is distinct, no number exceeds txSeq (what a
// checkpoint records as MaxSeq), and the history verifies.
func TestReaderSeqBlocksStayUnique(t *testing.T) {
	const (
		gorous  = 6
		perGoro = 24
	)
	rec := verify.NewRecorder()
	sys, c := counterSystem(Options{Sink: rec})
	var issued, maxSeq atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < gorous; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			own := &ReadTx{sys: sys} // recycled by hand, as the pool would
			for n := 0; n < perGoro; n++ {
				var r *ReadTx
				pooled := false
				switch {
				case g%3 == 2: // a writer between the readers' blocks
					tx := sys.Begin()
					if _, err := c.Call(tx, adt.IncInv(1)); err != nil {
						t.Error(err)
					}
					if err := tx.Commit(); err != nil {
						t.Error(err)
					}
					continue
				case g%3 == 1 && n%2 == 0:
					r = sys.BeginReadOnly()
				case g%3 == 1:
					r, pooled = sys.BeginReadOnlyPooledCtx(nil), true
				default:
					if n == perGoro/2 {
						own.seq = own.seqEnd - 3 // as if it had run its block nearly out
					}
					r = sys.startRead(own, nil, readSeqBlock)
				}
				if _, err := c.ReadCall(r, adt.CtrReadInv()); err != nil {
					t.Error(err)
				}
				issued.Add(1)
				for m := maxSeq.Load(); r.seq > m && !maxSeq.CompareAndSwap(m, r.seq); m = maxSeq.Load() {
				}
				if err := r.Commit(); err != nil {
					t.Error(err)
				}
				if pooled {
					sys.RecycleRead(r)
				}
			}
		}(g)
	}
	wg.Wait()

	seen := map[histories.TxID]bool{}
	for _, e := range rec.History() {
		if e.Kind == histories.Commit && strings.HasPrefix(string(e.Tx), "R") {
			if seen[e.Tx] {
				t.Fatalf("reader identifier %s was issued twice", e.Tx)
			}
			seen[e.Tx] = true
		}
	}
	if uint64(len(seen)) != issued.Load() {
		t.Errorf("%d distinct reader identifiers in the history, %d readers ran", len(seen), issued.Load())
	}
	if top := sys.txSeq.Load(); maxSeq.Load() > top || top < 2*readSeqBlock {
		t.Errorf("largest reader sequence number %d, txSeq = %d: want it below txSeq, and more than one block drawn", maxSeq.Load(), top)
	}
	isReadOnly := func(id histories.TxID) bool { return strings.HasPrefix(string(id), "R") }
	specs := histories.SpecMap{"C": adt.NewCounter()}
	if err := verify.CheckGeneralizedHybridAtomic(rec.History(), specs, isReadOnly); err != nil {
		t.Fatal(err)
	}
}

// TestReaderCountersExact: readers keep their books on their own registry
// slots, and Stats adds the slots up — exactly.  Six goroutines run pooled
// snapshots that commit, abort, or panic out of the callback (the facade's
// Snapshot shape), beside committing writers; twelve plain readers held open
// at once grow the registry past its first chunk.  Afterwards Begun,
// Committed, Aborted and Calls are what the test did, an open reader's calls
// are not visible until it finishes (the rule TestStats pins for update
// transactions), and the object's Granted counts the writers' lock grants
// alone: a read takes no lock.
func TestReaderCountersExact(t *testing.T) {
	const (
		gorous  = 6
		snaps   = 60
		reads   = 3
		writers = 2
		commits = 50
	)
	sys, c := counterSystem(Options{LockWait: 2 * time.Second})
	var committed, aborted, calls atomic.Int64
	// snapshot is the facade's SnapshotCtx: the reader finishes on every
	// way out of fn, a panic included.
	snapshot := func(fn func(r *ReadTx) bool) {
		defer func() { _ = recover() }()
		r := sys.BeginReadOnlyPooledCtx(nil)
		defer func() {
			if r.Abort() == nil {
				aborted.Add(1)
			}
			sys.RecycleRead(r)
		}()
		if fn(r) && r.Commit() == nil {
			committed.Add(1)
		}
	}
	read := func(r *ReadTx) {
		if _, err := c.ReadCall(r, adt.CtrReadInv()); err != nil {
			t.Error(err)
		}
		calls.Add(1)
	}

	var wg, open sync.WaitGroup
	open.Add(gorous)
	for g := 0; g < gorous; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a, b := sys.BeginReadOnly(), sys.BeginReadOnly()
			open.Done()
			open.Wait() // 12 readers at once: more than the first chunk holds
			read(a)
			if a.Commit() == nil && b.Commit() == nil {
				committed.Add(2)
			}
			for n := 0; n < snaps; n++ {
				snapshot(func(r *ReadTx) bool {
					for k := 0; k < reads; k++ {
						read(r)
						if n%7 == 3 {
							panic("out of the snapshot, one read in")
						}
					}
					return n%5 != 2 // false: the callback failed, the reader aborts
				})
			}
		}()
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < commits; n++ {
				tx := sys.Begin()
				if _, err := c.Call(tx, adt.IncInv(1)); err != nil {
					t.Error(err)
				}
				if err := tx.Commit(); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()

	if head := sys.readers.head.Load(); head.next.Load() == nil {
		t.Errorf("registry never grew past its initial %d slots", readerSlots)
	}
	const updates = writers * commits
	want := StatsSnapshot{
		Begun:     updates + committed.Load() + aborted.Load(),
		Committed: updates + committed.Load(),
		Aborted:   aborted.Load(),
		Calls:     updates + calls.Load(),
	}
	check := func(when string) {
		t.Helper()
		got := sys.Stats()
		if got.Begun != want.Begun || got.Committed != want.Committed || got.Aborted != want.Aborted || got.Calls != want.Calls {
			t.Errorf("%s: stats = %s, want begun=%d committed=%d aborted=%d calls=%d",
				when, got, want.Begun, want.Committed, want.Aborted, want.Calls)
		}
	}
	if aborted.Load() == 0 || committed.Load() == 0 {
		t.Fatalf("the mix ran %d commits and %d aborts: want both", committed.Load(), aborted.Load())
	}
	check("after the run")

	r := sys.BeginReadOnly()
	read(r)
	read(r)
	check("with a reader open") // its two calls are its own still
	if err := r.Abort(); err != nil {
		t.Fatal(err)
	}
	want.Begun, want.Aborted, want.Calls = want.Begun+1, want.Aborted+1, want.Calls+2
	check("after it finished")

	if g := c.Stats().Granted; g != updates {
		t.Errorf("object Granted = %d, want the %d lock grants of the writers (reads take no lock)", g, updates)
	}
}

// countingShard is a RemoteShard that answers the read-only branch calls
// and refuses Stats, so a stub's Stats falls back to its own counters.
type countingShard struct{ RemoteShard }

func (countingShard) Register(string, string, string) error { return nil }
func (countingShard) ReadBegin(context.Context, histories.TxID) (histories.Timestamp, error) {
	return 0, nil
}
func (countingShard) ReadActivate(context.Context, histories.TxID, histories.Timestamp) error {
	return nil
}
func (countingShard) ReadCall(context.Context, histories.TxID, histories.ObjID, spec.Invocation) (string, error) {
	return "7", nil
}
func (countingShard) ReadComplete(context.Context, histories.TxID, bool) error { return nil }
func (countingShard) Stats(context.Context) (StatsSnapshot, error) {
	return StatsSnapshot{}, errors.New("shard unreachable")
}

// TestRemoteBranchCountersExact: a remote read-only branch pins nothing at
// the stub, but its books are kept the same way, and a typed read through
// it gets the shard's response string in place of a state.
func TestRemoteBranchCountersExact(t *testing.T) {
	sys := NewRemoteSystem(countingShard{}, Options{})
	c := sys.NewObject("C", adt.NewCounter(), depend.SymmetricClosure(depend.CounterDependency()))
	for i, commit := range []bool{true, false} {
		r := sys.BeginReadOnlyBranch(context.Background(), histories.TxID(fmt.Sprintf("R-remote-%d", i)))
		r.ActivateAt(5)
		if res, err := c.ReadCall(r, adt.CtrReadInv()); err != nil || res != "7" {
			t.Fatalf("ReadCall = %q, %v", res, err)
		}
		if state, res, err := c.ReadState(r, adt.CtrReadInv()); err != nil || state != nil || res != "7" {
			t.Fatalf("ReadState = %v, %q, %v; want no state and the shard's answer", state, res, err)
		}
		if err := r.finish(commit); err != nil {
			t.Fatal(err)
		}
	}
	st := sys.Stats()
	if st.StatsErr == "" {
		t.Fatal("Stats of a stub whose shard is unreachable must say so")
	}
	if st.Begun != 2 || st.Committed != 1 || st.Aborted != 1 || st.Calls != 4 {
		t.Errorf("stub stats = %s, want begun=2 committed=1 aborted=1 calls=4", st)
	}
}
