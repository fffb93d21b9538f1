package hybridcc

import (
	"errors"
	"sync"
	"testing"
	"time"

	"hybridcc/internal/adt"
	"hybridcc/internal/histories"
	"hybridcc/internal/spec"
)

func TestSnapshotConsistentAcrossObjects(t *testing.T) {
	sys := NewSystem()
	c := Must(sys.NewCounter("c"))
	f := Must(sys.NewFile("f"))
	if err := sys.Atomically(func(tx *Tx) error {
		if err := c.Inc(tx, 3); err != nil {
			return err
		}
		return f.Write(tx, 3)
	}); err != nil {
		t.Fatal(err)
	}

	var count, value int64
	if err := sys.Snapshot(func(r *ReadTx) error {
		var err error
		if count, err = c.ReadAt(r); err != nil {
			return err
		}
		value, err = f.ReadAt(r)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if count != 3 || value != 3 {
		t.Errorf("snapshot = (%d, %d), want (3, 3)", count, value)
	}
}

func TestSnapshotIsolatedFromLaterWrites(t *testing.T) {
	sys := NewSystem()
	c := Must(sys.NewCounter("c"))
	if err := sys.Atomically(func(tx *Tx) error { return c.Inc(tx, 1) }); err != nil {
		t.Fatal(err)
	}
	r := sys.BeginReadOnly()
	// A later writer commits after the reader's serialization point.
	if err := sys.Atomically(func(tx *Tx) error { return c.Inc(tx, 100) }); err != nil {
		t.Fatal(err)
	}
	got, err := c.ReadAt(r)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Errorf("snapshot count = %d, want 1", got)
	}
	if err := r.Commit(); err != nil {
		t.Fatal(err)
	}
	if c.CommittedValue() != 101 {
		t.Errorf("committed count = %d", c.CommittedValue())
	}
}

func TestSnapshotAllReadTypes(t *testing.T) {
	sys := NewSystem()
	f := Must(sys.NewFile("f"))
	c := Must(sys.NewCounter("c"))
	s := Must(sys.NewSet("s"))
	d := Must(sys.NewDirectory("d"))
	if err := sys.Atomically(func(tx *Tx) error {
		if err := f.Write(tx, 9); err != nil {
			return err
		}
		if err := c.Inc(tx, 2); err != nil {
			return err
		}
		if _, err := s.Insert(tx, 5); err != nil {
			return err
		}
		_, err := d.Bind(tx, "k", 7)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Snapshot(func(r *ReadTx) error {
		if v, err := f.ReadAt(r); err != nil || v != 9 {
			t.Errorf("file = %d err=%v", v, err)
		}
		if v, err := c.ReadAt(r); err != nil || v != 2 {
			t.Errorf("counter = %d err=%v", v, err)
		}
		if in, err := s.MemberAt(r, 5); err != nil || !in {
			t.Errorf("member(5) = %v err=%v", in, err)
		}
		if in, err := s.MemberAt(r, 6); err != nil || in {
			t.Errorf("member(6) = %v err=%v", in, err)
		}
		if v, ok, err := d.LookupAt(r, "k"); err != nil || !ok || v != 7 {
			t.Errorf("lookup(k) = %d %v err=%v", v, ok, err)
		}
		if _, ok, err := d.LookupAt(r, "zz"); err != nil || ok {
			t.Errorf("lookup(zz) = %v err=%v", ok, err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestDialedSnapshotSetDirectory: on a dialed cluster the typed getters
// have no local state to read and answer from the shard's response string.
func TestDialedSnapshotSetDirectory(t *testing.T) {
	var s *Set
	var d *Directory
	c, err := Dial(startNetShards(t, 1), func(c *Cluster) (err error) {
		if s, err = c.NewSet("s"); err != nil {
			return err
		}
		d, err = c.NewDirectory("d")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Atomically(func(tx *DTx) error {
		if _, err := s.Insert(tx, 5); err != nil {
			return err
		}
		_, err := d.Bind(tx, "k", 7)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Snapshot(func(r *DReadTx) error {
		if in, err := s.MemberAt(r, 5); err != nil || !in {
			t.Errorf("member(5) = %v err=%v", in, err)
		}
		if in, err := s.MemberAt(r, 6); err != nil || in {
			t.Errorf("member(6) = %v err=%v", in, err)
		}
		if v, ok, err := d.LookupAt(r, "k"); err != nil || !ok || v != 7 {
			t.Errorf("lookup(k) = %d %v err=%v", v, ok, err)
		}
		if _, ok, err := d.LookupAt(r, "zz"); err != nil || ok {
			t.Errorf("lookup(zz) = %v err=%v", ok, err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotErrorAborts(t *testing.T) {
	sys := NewSystem()
	boom := errors.New("boom")
	if err := sys.Snapshot(func(r *ReadTx) error { return boom }); !errors.Is(err, boom) {
		t.Errorf("err = %v", err)
	}
}

func TestReadersDoNotBlockWritersFacade(t *testing.T) {
	rec := NewRecorder()
	sys := NewSystem(WithRecorder(rec), WithLockWait(500*time.Millisecond))
	c := Must(sys.NewCounter("c"))
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// A steady stream of readers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = sys.Snapshot(func(r *ReadTx) error {
				_, err := c.ReadAt(r)
				return err
			})
		}
	}()
	// Writers must keep committing regardless.
	for i := 0; i < 50; i++ {
		if err := sys.Atomically(func(tx *Tx) error { return c.Inc(tx, 1) }); err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	if c.CommittedValue() != 50 {
		t.Errorf("count = %d", c.CommittedValue())
	}
	if err := sys.Verify(); err != nil {
		t.Fatalf("generalized verification failed: %v", err)
	}
}

// recoverFrom runs fn and returns what it panicked with.
func recoverFrom(fn func()) (recovered any) {
	defer func() { recovered = recover() }()
	fn()
	return nil
}

// TestSnapshotPanicReleasesPin: a panic unwinding out of Snapshot must not
// leave the reader's compaction pin behind — one recovered panic would hold
// the horizon of every object for the life of the process.
func TestSnapshotPanicReleasesPin(t *testing.T) {
	sys := NewSystem()
	c := Must(sys.NewCounter("c"))
	got := recoverFrom(func() {
		_ = sys.Snapshot(func(r *ReadTx) error {
			if _, err := c.ReadAt(r); err != nil {
				return err
			}
			panic("boom")
		})
	})
	if got != "boom" {
		t.Fatalf("recovered %v: Snapshot must let the callback's panic through", got)
	}
	for i := 0; i < 3; i++ {
		if err := sys.Atomically(func(tx *Tx) error { return c.Inc(tx, 1) }); err != nil {
			t.Fatal(err)
		}
	}
	if n := c.obj.obj.UnforgottenLen(); n != 0 {
		t.Errorf("unforgotten = %d after a panicked snapshot, want 0 (pin leaked)", n)
	}
	if st := sys.Stats(); st.Aborted != 1 {
		t.Errorf("aborted = %d, want 1: the panicked reader", st.Aborted)
	}
}

func TestClusterSnapshotPanicReleasesPin(t *testing.T) {
	cl, err := NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	ctrs := []*Counter{Must(cl.NewCounter("a")), Must(cl.NewCounter("b")), Must(cl.NewCounter("c"))}
	got := recoverFrom(func() {
		_ = cl.Snapshot(func(r *DReadTx) error { panic("boom") })
	})
	if got != "boom" {
		t.Fatalf("recovered %v: Snapshot must let the callback's panic through", got)
	}
	for _, c := range ctrs {
		for i := 0; i < 2; i++ {
			if err := cl.Atomically(func(tx *DTx) error { return c.Inc(tx, 1) }); err != nil {
				t.Fatal(err)
			}
		}
		if n := c.obj.obj.UnforgottenLen(); n != 0 {
			t.Errorf("%s: unforgotten = %d after a panicked snapshot, want 0 (pin leaked)", c.obj.Name(), n)
		}
	}
}

// TestSnapshotLeakedHandleIsDead is the reader half of the pooling
// contract (see TestAtomicallyLeakedHandleIsDead).
func TestSnapshotLeakedHandleIsDead(t *testing.T) {
	sys := NewSystem()
	c := Must(sys.NewCounter("c"))
	var leaked *ReadTx
	if err := sys.Snapshot(func(r *ReadTx) error {
		leaked = r
		_, err := c.ReadAt(r)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadAt(leaked); !errors.Is(err, ErrTxDone) {
		t.Errorf("ReadAt through leaked handle = %v, want ErrTxDone", err)
	}
	if err := leaked.Commit(); !errors.Is(err, ErrTxDone) {
		t.Errorf("Commit through leaked handle = %v, want ErrTxDone", err)
	}
	// Handles from BeginReadOnly are never pooled: they outlive any scope.
	r := sys.BeginReadOnly()
	if err := sys.Snapshot(func(*ReadTx) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadAt(r); err != nil {
		t.Errorf("ReadAt through an unpooled handle: %v", err)
	}
	if err := r.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestCustomSpecReadsGenerically: a user-defined specification carries no
// read capability, so its reads take the generic derivation — and mutators
// are still refused.
func TestCustomSpecReadsGenerically(t *testing.T) {
	type reg struct{ v string }
	sp := Spec{
		Name: "Register",
		Init: func() State { return reg{v: "0"} },
		Responses: func(s State, inv Invocation) []string {
			if inv.Name == "Get" {
				return []string{s.(reg).v}
			}
			return []string{"Ok"}
		},
		Apply: func(s State, op Op) State {
			if op.Name == "Put" {
				return reg{v: op.Arg}
			}
			return s
		},
		Equal:      func(a, b State) bool { return a.(reg) == b.(reg) },
		Dependency: func(q, p Op) bool { return q.Name == "Get" && p.Name == "Put" },
	}
	sys := NewSystem()
	o, err := sys.NewCustom("r", sp)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := o.obj.Spec().(spec.ReadSpec); ok {
		t.Fatal("a custom specification must not carry the read capability")
	}
	put := Invocation{Name: "Put", Arg: "7"}
	if err := sys.Atomically(func(tx *Tx) error { _, err := o.Call(tx, put); return err }); err != nil {
		t.Fatal(err)
	}
	if err := sys.Snapshot(func(r *ReadTx) error {
		if got, err := o.ReadCall(r, Invocation{Name: "Get"}); err != nil || got != "7" {
			t.Errorf("Get = %q, %v; want 7", got, err)
		}
		if _, err := o.ReadCall(r, Invocation{Name: "Put", Arg: "8"}); !errors.Is(err, ErrNotReadOnly) {
			t.Errorf("Put in a snapshot: %v, want ErrNotReadOnly", err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestTypedReadAtIsTheStringRead: Counter.ReadAt and File.ReadAt take their
// answer off the snapshot state; the generic Object.ReadCall formats the
// response string.  Both are one read: at reader timestamps interleaved with
// commits they agree, with a recorder the typed getter's reads are in the
// history like any other (and it verifies), and a mutator through the
// generic entry point is refused.
func TestTypedReadAtIsTheStringRead(t *testing.T) {
	rec := NewRecorder()
	sys := NewSystem(WithRecorder(rec))
	c := Must(sys.NewCounter("c"))
	f := Must(sys.NewFile("f"))
	var readers []*ReadTx
	for i := int64(1); i <= 4; i++ {
		readers = append(readers, sys.BeginReadOnly()) // sees i-1 commits
		if err := sys.Atomically(func(tx *Tx) error {
			if err := c.Inc(tx, i); err != nil {
				return err
			}
			return f.Write(tx, 10*i)
		}); err != nil {
			t.Fatal(err)
		}
	}
	readers = append(readers, sys.BeginReadOnly())
	sum := int64(0)
	for i, r := range readers {
		sum += int64(i)
		str, err := c.obj.ReadCall(r, adt.CtrReadInv())
		if v, verr := c.ReadAt(r); err != nil || verr != nil || v != adt.Atoi(str) || v != sum {
			t.Errorf("reader %d: Counter.ReadAt = %d (%v), ReadCall = %q (%v), want %d", i, v, verr, str, err, sum)
		}
		str, err = f.obj.ReadCall(r, adt.FileReadInv())
		if v, verr := f.ReadAt(r); err != nil || verr != nil || v != adt.Atoi(str) || v != 10*int64(i) {
			t.Errorf("reader %d: File.ReadAt = %d (%v), ReadCall = %q (%v), want %d", i, v, verr, str, err, 10*i)
		}
		if _, err := c.obj.ReadCall(r, adt.IncInv(1)); !errors.Is(err, ErrNotReadOnly) {
			t.Errorf("reader %d: Inc through ReadCall: %v, want ErrNotReadOnly", i, err)
		}
		if err := r.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	responds := 0
	for _, e := range rec.History() {
		if e.Kind == histories.Respond && e.Tx[0] == 'R' {
			responds++
		}
	}
	if want := len(readers) * 4; responds != want {
		t.Errorf("the recorder saw %d reader responses, want %d: a typed read records like a string one", responds, want)
	}
	if err := sys.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestTypedReadAtOverTheWire: a dialed cluster's objects have no local
// state — the typed getter's answer is the shard's response string.
func TestTypedReadAtOverTheWire(t *testing.T) {
	var ctr *Counter
	var file *File
	c, err := Dial(startNetShards(t, 2), func(cl *Cluster) error {
		var err error
		if ctr, err = cl.NewCounter("c"); err != nil {
			return err
		}
		file, err = cl.NewFile("f")
		return err
	}, WithRecorder(NewRecorder()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Atomically(func(tx *DTx) error {
		if err := ctr.Inc(tx, 4100); err != nil {
			return err
		}
		return file.Write(tx, 77)
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Snapshot(func(r *DReadTx) error {
		str, err := ctr.obj.ReadCall(r, adt.CtrReadInv())
		if v, verr := ctr.ReadAt(r); err != nil || verr != nil || str != "4100" || v != 4100 {
			t.Errorf("Counter.ReadAt = %d (%v), ReadCall = %q (%v), want 4100", v, verr, str, err)
		}
		if v, err := file.ReadAt(r); err != nil || v != 77 {
			t.Errorf("File.ReadAt = %d (%v), want 77", v, err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
}
