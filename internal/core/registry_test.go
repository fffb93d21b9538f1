package core

import (
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
	"hybridcc/internal/tstamp"
	"hybridcc/internal/verify"
)

// This file tests the lock-free reader registry (readerRegistry): the
// pin-before-draw ordering, slot reuse and growth under concurrent readers,
// and the release of every pin.  Run with -race and -cpu 1,4, as CI does.

// parkClock is a tstamp.Source whose next draw, once armed, parks after the
// timestamp is drawn and before Next returns: the caller holds a timestamp
// that nothing it does afterwards has happened yet.
type parkClock struct {
	tstamp.Source
	armed  atomic.Bool
	drawn  chan struct{}
	resume chan struct{}
}

func (c *parkClock) Next(lower histories.Timestamp) histories.Timestamp {
	ts := c.Source.Next(lower)
	if c.armed.CompareAndSwap(true, false) {
		close(c.drawn)
		<-c.resume
	}
	return ts
}

// TestReaderPinsBeforeDraw parks a reader between its provisional pin and
// the moment it learns its timestamp r, while a writer commits at w > r and
// folds.  The provisional pin must hold the writer's entry out of the
// version, so the reader still reconstructs the state as of r.
//
// Mutation: in startRead, move `tx.slot = s.readers.pin(tx.hint)` below
// `tx.ts = s.clock.Next(0)` (draw, then pin).  The writer's fold scan then
// finds no reader, folds w into the version, and this test fails with
// "unforgotten = 0" and "read = 15".
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
