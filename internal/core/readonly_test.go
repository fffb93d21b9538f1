package core

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"hybridcc/internal/adt"
	"hybridcc/internal/baseline"
	"hybridcc/internal/depend"
	"hybridcc/internal/histories"
	"hybridcc/internal/spec"
	"hybridcc/internal/verify"
)

func counterSystem(opts Options) (*System, *Object) {
	sys := NewSystem(opts)
	obj := sys.NewObject("C", adt.NewCounter(), depend.SymmetricClosure(depend.CounterDependency()))
	return sys, obj
}

func TestReadOnlySnapshotIgnoresLaterCommits(t *testing.T) {
	sys, c := counterSystem(Options{})
	// Commit 10 before the reader starts.
	w1 := sys.Begin()
	mustCall(t, c, w1, adt.IncInv(10))
	if err := w1.Commit(); err != nil {
		t.Fatal(err)
	}

	r := sys.BeginReadOnly()

	// Commit 5 more after the reader's timestamp was chosen.
	w2 := sys.Begin()
	mustCall(t, c, w2, adt.IncInv(5))
	if err := w2.Commit(); err != nil {
		t.Fatal(err)
	}

	got, err := c.ReadCall(r, adt.CtrReadInv())
	if err != nil {
		t.Fatal(err)
	}
	if got != "10" {
		t.Errorf("snapshot read = %s, want 10 (w2 serialized after the reader)", got)
	}
	// Repeat read sees the same snapshot.
	got2, err := c.ReadCall(r, adt.CtrReadInv())
	if err != nil || got2 != got {
		t.Errorf("second read = %s err=%v", got2, err)
	}
	if err := r.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadCall(r, adt.CtrReadInv()); !errors.Is(err, ErrTxDone) {
		t.Errorf("read after commit: %v", err)
	}
}

func TestReadOnlyDoesNotBlockWriters(t *testing.T) {
	sys, c := counterSystem(Options{LockWait: time.Second})
	r := sys.BeginReadOnly()
	if _, err := c.ReadCall(r, adt.CtrReadInv()); err != nil {
		t.Fatal(err)
	}
	// A writer proceeds immediately despite the active reader.
	w := sys.Begin()
	start := time.Now()
	mustCall(t, c, w, adt.IncInv(1))
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Errorf("writer was delayed %s by a reader", elapsed)
	}
	if err := r.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestReadOnlyIgnoresActiveWriterSharedClock(t *testing.T) {
	// Without external timestamps every future commit draws from the
	// shared clock and lands above the reader, so an active writer never
	// blocks a reader: the reader proceeds immediately and sees a
	// snapshot without the writer's effect.
	sys, c := counterSystem(Options{LockWait: time.Second})
	w := sys.Begin()
	mustCall(t, c, w, adt.IncInv(7))

	r := sys.BeginReadOnly()
	got, err := c.ReadCall(r, adt.CtrReadInv())
	if err != nil {
		t.Fatal(err)
	}
	if got != "0" {
		t.Errorf("read = %q, want 0 (writer not committed)", got)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if wts, _ := w.Timestamp(); wts <= r.Timestamp() {
		t.Fatalf("writer ts %d must exceed reader ts %d under a shared clock", wts, r.Timestamp())
	}
	_ = r.Commit()
}

func TestCommitAtRequiresOption(t *testing.T) {
	sys, c := counterSystem(Options{})
	w := sys.Begin()
	mustCall(t, c, w, adt.IncInv(1))
	if err := w.CommitAt(99); !errors.Is(err, ErrExternalTS) {
		t.Fatalf("CommitAt without option: %v, want ErrExternalTS", err)
	}
	_ = w.Abort()
}

func TestReadOnlySeesExternallyTimestampedEarlierCommit(t *testing.T) {
	// With CommitAt a writer can land below an already-started reader;
	// the reader must wait for it and then observe it.  Sequence: writer
	// executes, reader starts (drawing ts from the clock), writer commits
	// at an external timestamp above its bound but below the reader's.
	sys, c := counterSystem(Options{LockWait: time.Second, ExternalTimestamps: true})
	w := sys.Begin()
	mustCall(t, c, w, adt.IncInv(7)) // bound 0
	sys.clock.Observe(5)             // other sites' commits moved the clock on
	r := sys.BeginReadOnly()
	if r.Timestamp() < 2 {
		t.Fatalf("reader ts = %d, want room below it for the writer", r.Timestamp())
	}
	// External coordinator picked a timestamp between the writer's bound
	// and the reader: the writer serializes before the reader.
	done := make(chan string, 1)
	go func() {
		res, err := c.ReadCall(r, adt.CtrReadInv())
		if err != nil {
			done <- "err:" + err.Error()
			return
		}
		done <- res
	}()
	time.Sleep(20 * time.Millisecond) // let the reader block on the writer
	if err := w.CommitAt(r.Timestamp() - 1); err != nil {
		t.Fatal(err)
	}
	if got := <-done; got != "7" {
		t.Errorf("read = %q, want 7 (writer committed below the reader's timestamp)", got)
	}
	_ = r.Commit()
}

func TestReadOnlyWaitTimesOut(t *testing.T) {
	// Conservative waiting (and hence timing out) requires external
	// timestamps to be possible.
	sys, c := counterSystem(Options{LockWait: 20 * time.Millisecond, ExternalTimestamps: true})
	w := sys.Begin()
	mustCall(t, c, w, adt.IncInv(1))
	r := sys.BeginReadOnly()
	if _, err := c.ReadCall(r, adt.CtrReadInv()); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	_ = w.Abort()
	_ = r.Abort()
	if err := r.Abort(); !errors.Is(err, ErrTxDone) {
		t.Errorf("double abort: %v", err)
	}
}

// TestReadOnlyRejectsMutators: on every built-in type, an invocation whose
// response changes the committed state fails with ErrNotReadOnly, whether
// or not the type answers its observers directly.
func TestReadOnlyRejectsMutators(t *testing.T) {
	cases := []struct {
		typ      string
		setup    spec.Invocation
		mutators []spec.Invocation
	}{
		{"File", adt.FileWriteInv(1), []spec.Invocation{adt.FileWriteInv(2)}},
		{"Queue", adt.EnqInv(1), []spec.Invocation{adt.EnqInv(2), adt.DeqInv()}},
		{"Semiqueue", adt.InsInv(1), []spec.Invocation{adt.InsInv(2), adt.RemInv()}},
		{"Account", adt.CreditInv(5), []spec.Invocation{adt.CreditInv(1), adt.PostInv(2), adt.DebitInv(3)}},
		{"Counter", adt.IncInv(1), []spec.Invocation{adt.IncInv(1)}},
		{"Set", adt.SetInsertInv(1), []spec.Invocation{adt.SetInsertInv(2), adt.SetRemoveInv(1)}},
		{"Directory", adt.DirBindInv("a", 1), []spec.Invocation{adt.DirBindInv("b", 2), adt.DirUnbindInv("a")}},
	}
	for _, tc := range cases {
		sys := NewSystem(Options{})
		o := sys.NewObject(tc.typ, baseline.SpecFor(tc.typ), baseline.ConflictFor("hybrid", tc.typ))
		w := sys.Begin()
		mustCall(t, o, w, tc.setup)
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
		r := sys.BeginReadOnly()
		for _, inv := range tc.mutators {
			if _, err := o.ReadCall(r, inv); !errors.Is(err, ErrNotReadOnly) {
				t.Errorf("%s: %s in read-only tx: %v, want ErrNotReadOnly", tc.typ, inv, err)
			}
		}
		_ = r.Abort()
	}
}

// genericRead is the reference derivation of a read-only response:
// Responses, Step, Equal.  It reports the response and whether the
// invocation was refused as blocked or as a mutator.
func genericRead(sp spec.Spec, st spec.State, inv spec.Invocation) (res string, blocked, mutates bool) {
	responses := sp.Responses(st, inv)
	if len(responses) == 0 {
		return "", true, false
	}
	next, ok := sp.Step(st, inv.With(responses[0]))
	if !ok {
		panic("listed response illegal")
	}
	return responses[0], false, !sp.Equal(st, next)
}

// TestDirectReadsMatchGenericDerivation walks every state of each built-in
// type reachable from its declared universe in three steps and checks, for
// every invocation of the universe, that the object's read derivation —
// direct where the type has the read capability — returns what the generic
// derivation returns, refusals included.
func TestDirectReadsMatchGenericDerivation(t *testing.T) {
	direct := map[string]int{}
	for _, sp := range adt.All() {
		name := sp.Name()
		universe := baseline.UniverseFor(name)
		o := NewSystem(Options{}).NewObjectSeeded(name, sp, baseline.ConflictFor("hybrid", name), universe)
		frontier := []spec.State{sp.Init()}
		for depth := 0; depth <= 3; depth++ {
			var next []spec.State
			for _, st := range frontier {
				for _, op := range universe {
					inv := op.Inv()
					want, blocked, mutates := genericRead(sp, st, inv)
					got, err := o.deriveRead(st, inv)
					switch {
					case blocked && !errors.Is(err, ErrTimeout), mutates && !errors.Is(err, ErrNotReadOnly),
						!blocked && !mutates && (err != nil || got != want):
						t.Errorf("%s: %s read in %v = %q, %v; generic derivation: %q blocked=%v mutates=%v",
							name, inv, st, got, err, want, blocked, mutates)
					}
					if o.readSp != nil {
						if res, ok := o.readSp.ReadResponse(st, inv); ok {
							direct[name]++
							if blocked || mutates || res != want {
								t.Errorf("%s: ReadResponse(%v, %s) = %q; generic derivation: %q blocked=%v mutates=%v",
									name, st, inv, res, want, blocked, mutates)
							}
						}
					}
					if n, ok := sp.Step(st, op); ok {
						next = append(next, n)
					}
				}
			}
			frontier = next
		}
	}
	for _, name := range []string{"File", "Counter", "Set", "Directory"} {
		if direct[name] == 0 {
			t.Errorf("%s answered no read directly", name)
		}
	}
	if len(direct) != 4 {
		t.Errorf("direct answers from %v: Account, Queue and Semiqueue have no pure observer", direct)
	}
}

func TestReadOnlyPinsCompaction(t *testing.T) {
	sys, c := counterSystem(Options{})
	r := sys.BeginReadOnly()
	for i := 0; i < 5; i++ {
		w := sys.Begin()
		mustCall(t, c, w, adt.IncInv(1))
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if n := c.UnforgottenLen(); n != 5 {
		t.Errorf("unforgotten with active reader = %d, want 5 (reader pins the horizon)", n)
	}
	if err := r.Commit(); err != nil {
		t.Fatal(err)
	}
	// The pin is released; the next completion event folds everything.
	w := sys.Begin()
	mustCall(t, c, w, adt.IncInv(1))
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := c.UnforgottenLen(); n != 0 {
		t.Errorf("unforgotten after reader closed = %d, want 0", n)
	}
}

func TestReadOnlyRecordedHistoryVerifies(t *testing.T) {
	rec := verify.NewRecorder()
	sys := NewSystem(Options{Sink: rec, LockWait: 200 * time.Millisecond})
	c := sys.NewObject("C", adt.NewCounter(), depend.SymmetricClosure(depend.CounterDependency()))
	f := sys.NewObject("F", adt.NewFile(), depend.SymmetricClosure(depend.FileDependency()))

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				tx := sys.Begin()
				if _, err := c.Call(tx, adt.IncInv(int64(w+1))); err != nil {
					_ = tx.Abort()
					continue
				}
				if _, err := f.Call(tx, adt.FileWriteInv(int64(w*100+i))); err != nil {
					_ = tx.Abort()
					continue
				}
				_ = tx.Commit()
			}
		}(w)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				r := sys.BeginReadOnly()
				if _, err := c.ReadCall(r, adt.CtrReadInv()); err != nil {
					_ = r.Abort()
					continue
				}
				if _, err := f.ReadCall(r, adt.FileReadInv()); err != nil {
					_ = r.Abort()
					continue
				}
				_ = r.Commit()
			}
		}(w)
	}
	wg.Wait()

	specs := histories.SpecMap{"C": adt.NewCounter(), "F": adt.NewFile()}
	isReadOnly := func(id histories.TxID) bool { return strings.HasPrefix(string(id), "R") }
	if err := verify.CheckGeneralizedHybridAtomic(rec.History(), specs, isReadOnly); err != nil {
		t.Fatal(err)
	}
}

func TestReadOnlyIDAndTimestamp(t *testing.T) {
	sys, _ := counterSystem(Options{})
	r := sys.BeginReadOnly()
	if !strings.HasPrefix(string(r.ID()), "R") {
		t.Errorf("read-only id = %q, want R prefix", r.ID())
	}
	if r.Timestamp() <= 0 {
		t.Errorf("timestamp = %d", r.Timestamp())
	}
	r2 := sys.BeginReadOnly()
	if r2.Timestamp() <= r.Timestamp() {
		t.Error("reader timestamps must increase")
	}
	_ = r.Abort()
	_ = r2.Abort()
}

// TestTypedAndStringReadsAgree: ReadState (what a typed getter calls) and
// ReadCall are one read path with two renderings of its answer.  Readers
// begun between commits read a Counter and a File both ways — on the
// lock-free path, and on the mutex path a held commit window forces — and
// the state's value is the string's, as of the reader's timestamp.  With a
// sink attached ReadState records the same invoke/respond events; a mutator
// is refused either way.
func TestTypedAndStringReadsAgree(t *testing.T) {
	rec := verify.NewRecorder()
	for _, sink := range []SeqSink{nil, rec} {
		sys := NewSystem(Options{Sink: sink})
		c := sys.NewObject("C", adt.NewCounter(), depend.SymmetricClosure(depend.CounterDependency()))
		f := sys.NewObject("F", adt.NewFile(), depend.SymmetricClosure(depend.FileDependency()))
		var readers []*ReadTx
		for i := int64(1); i <= 5; i++ {
			readers = append(readers, sys.BeginReadOnly()) // sees i-1 commits
			tx := sys.Begin()
			mustCall(t, c, tx, adt.IncInv(i))
			mustCall(t, f, tx, adt.FileWriteInv(100*i))
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		readers = append(readers, sys.BeginReadOnly())
		typed := func(r *ReadTx, o *Object, inv spec.Invocation, valueOf func(spec.State) int64) int64 {
			t.Helper()
			state, res, err := o.ReadState(r, inv)
			if err != nil {
				t.Fatal(err)
			}
			if (res != "") != (sink != nil) {
				t.Errorf("ReadState formatted %q with sink=%v: the string is for a sink to record, and for nobody else", res, sink != nil)
			}
			return valueOf(state)
		}
		for _, slow := range []bool{false, true} {
			if slow { // as if a writer sat in its commit window: the mutex path
				c.windowWriters.Add(1)
				f.windowWriters.Add(1)
			}
			sum := int64(0)
			for i, r := range readers {
				sum += int64(i)
				str, err := c.ReadCall(r, adt.CtrReadInv())
				if got := typed(r, c, adt.CtrReadInv(), adt.CounterValue); err != nil || got != adt.Atoi(str) || got != sum {
					t.Errorf("slow=%v reader %d: counter typed %d, string %q (%v), want %d", slow, i, got, str, err, sum)
				}
				str, err = f.ReadCall(r, adt.FileReadInv())
				if got := typed(r, f, adt.FileReadInv(), adt.FileValue); err != nil || got != adt.Atoi(str) || got != 100*int64(i) {
					t.Errorf("slow=%v reader %d: file typed %d, string %q (%v), want %d", slow, i, got, str, err, 100*i)
				}
			}
			if slow {
				c.windowWriters.Add(-1)
				f.windowWriters.Add(-1)
			}
		}
		for _, r := range readers {
			if r.calls != 8 {
				t.Errorf("reader %s counted %d calls, want 8: both entry points count one each", r.ID(), r.calls)
			}
			if _, err := c.ReadCall(r, adt.IncInv(1)); !errors.Is(err, ErrNotReadOnly) {
				t.Errorf("Inc through ReadCall: %v, want ErrNotReadOnly", err)
			}
			if err := r.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	specs := histories.SpecMap{"C": adt.NewCounter(), "F": adt.NewFile()}
	isReadOnly := func(id histories.TxID) bool { return strings.HasPrefix(string(id), "R") }
	h := rec.History()
	if err := verify.CheckGeneralizedHybridAtomic(h, specs, isReadOnly); err != nil {
		t.Fatal(err)
	}
	responds := 0
	for _, e := range h {
		if e.Kind == histories.Respond && isReadOnly(e.Tx) {
			responds++
		}
	}
	if want := 6 * 8; responds != want { // six readers, four reads each way
		t.Errorf("the recorder saw %d reader responses, want %d: a typed read records like a string one", responds, want)
	}
}
