package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hybridcc/internal/adt"
	"hybridcc/internal/baseline"
	"hybridcc/internal/commitproto"
	"hybridcc/internal/core"
	"hybridcc/internal/histories"
	"hybridcc/internal/verify"
)

var (
	_ core.Txn     = (*DTx)(nil)
	_ core.ReadTxn = (*DReadTx)(nil)
)

// newAccountOn registers an Account object on shard i of c.
func newAccountOn(c *Cluster, i int, name string) *core.Object {
	return c.Shard(i).NewObject(name, adt.NewAccount(), baseline.ConflictFor("hybrid", "Account"))
}

// newCounterOn registers a Counter object on shard i of c.
func newCounterOn(c *Cluster, i int, name string) *core.Object {
	return c.Shard(i).NewObject(name, adt.NewCounter(), baseline.ConflictFor("hybrid", "Counter"))
}

// fund commits an opening balance through a single-shard transaction.
func fund(t *testing.T, c *Cluster, obj *core.Object, amount int64) {
	t.Helper()
	tx := c.Begin()
	br, err := tx.Branch(obj)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obj.Call(br, adt.CreditInv(amount)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Options{Shards: 0}); err == nil {
		t.Fatal("New accepted 0 shards")
	}
	c, err := New(Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if c.NumShards() != 4 {
		t.Fatalf("NumShards = %d", c.NumShards())
	}
	// Placement is stable and in range.
	for _, name := range []string{"a", "b", "accounts/7", ""} {
		s := c.ShardFor(name)
		if s < 0 || s >= 4 {
			t.Fatalf("ShardFor(%q) = %d out of range", name, s)
		}
		if s != c.ShardFor(name) {
			t.Fatalf("ShardFor(%q) not deterministic", name)
		}
		if c.SystemFor(name) != c.Shard(s) {
			t.Fatalf("SystemFor(%q) disagrees with ShardFor", name)
		}
	}
}

func TestNegativeCommitTimeoutNormalized(t *testing.T) {
	c, err := New(Options{Shards: 2, LockWait: time.Second, CommitTimeout: -1})
	if err != nil {
		t.Fatal(err)
	}
	a := newAccountOn(c, 0, "a")
	b := newAccountOn(c, 1, "b")
	// A cross-shard commit must still go through: a raw negative timeout
	// would fire every protocol timer immediately and abort the round.
	tx := c.Begin()
	brA, _ := tx.Branch(a)
	if _, err := a.Call(brA, adt.CreditInv(5)); err != nil {
		t.Fatal(err)
	}
	brB, _ := tx.Branch(b)
	if _, err := b.Call(brB, adt.CreditInv(5)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().CrossShardCommits; got != 1 {
		t.Fatalf("cross-shard commits = %d, want 1", got)
	}
}

func TestSingleShardFastPath(t *testing.T) {
	c, err := New(Options{Shards: 4, LockWait: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	acc := newAccountOn(c, 2, "acc")
	fund(t, c, acc, 100)

	st := c.Stats()
	if st.FastPathCommits != 1 || st.CrossShardCommits != 0 {
		t.Fatalf("stats = %+v, want 1 fast-path commit and no 2PC", st)
	}
	if got := adt.AccountBalance(acc.CommittedState()); got != 100 {
		t.Fatalf("balance = %d", got)
	}
}

func TestEmptyCommit(t *testing.T) {
	c, err := New(Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	tx := c.Begin()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, core.ErrTxDone) {
		t.Fatalf("second commit: %v, want ErrTxDone", err)
	}
	if err := tx.Abort(); !errors.Is(err, core.ErrTxDone) {
		t.Fatalf("abort after commit: %v, want ErrTxDone", err)
	}
}

func TestCrossShardCommitSharedTimestamp(t *testing.T) {
	rec := verify.NewRecorder()
	c, err := New(Options{Shards: 2, LockWait: time.Second, Sink: rec})
	if err != nil {
		t.Fatal(err)
	}
	a := newAccountOn(c, 0, "a")
	b := newAccountOn(c, 1, "b")
	fund(t, c, a, 100)

	// Transfer across shards through 2PC.
	tx := c.Begin()
	brA, _ := tx.Branch(a)
	if res, err := a.Call(brA, adt.DebitInv(30)); err != nil || res != adt.ResOk {
		t.Fatalf("debit: %q %v", res, err)
	}
	brB, _ := tx.Branch(b)
	if _, err := b.Call(brB, adt.CreditInv(30)); err != nil {
		t.Fatal(err)
	}
	if got := tx.Shards(); got != 2 {
		t.Fatalf("touched %d shards, want 2", got)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	if got := adt.AccountBalance(a.CommittedState()); got != 70 {
		t.Errorf("shard 0 balance = %d", got)
	}
	if got := adt.AccountBalance(b.CommittedState()); got != 30 {
		t.Errorf("shard 1 balance = %d", got)
	}
	st := c.Stats()
	if st.CrossShardCommits != 1 {
		t.Errorf("stats = %+v, want 1 cross-shard commit", st)
	}

	// Both shards committed the transaction at one timestamp.
	var tss []histories.Timestamp
	for _, e := range rec.History() {
		if e.Kind == histories.Commit && e.Tx == tx.ID() {
			tss = append(tss, e.TS)
		}
	}
	if len(tss) != 2 || tss[0] != tss[1] {
		t.Fatalf("commit timestamps of %s = %v, want two equal", tx.ID(), tss)
	}

	specs := histories.SpecMap{"a": adt.NewAccount(), "b": adt.NewAccount()}
	if err := verify.CheckHybridAtomic(rec.History(), specs); err != nil {
		t.Errorf("global history: %v", err)
	}
}

func TestAbortRollsBackAllBranches(t *testing.T) {
	c, err := New(Options{Shards: 2, LockWait: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	a := newAccountOn(c, 0, "a")
	b := newAccountOn(c, 1, "b")
	fund(t, c, a, 100)

	tx := c.Begin()
	brA, _ := tx.Branch(a)
	if _, err := a.Call(brA, adt.DebitInv(30)); err != nil {
		t.Fatal(err)
	}
	brB, _ := tx.Branch(b)
	if _, err := b.Call(brB, adt.CreditInv(30)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Branch(a); !errors.Is(err, core.ErrTxDone) {
		t.Fatalf("Branch after abort: %v, want ErrTxDone", err)
	}
	if got := adt.AccountBalance(a.CommittedState()); got != 100 {
		t.Errorf("shard 0 balance = %d, want 100 (rolled back)", got)
	}
	if got := adt.AccountBalance(b.CommittedState()); got != 0 {
		t.Errorf("shard 1 balance = %d, want 0 (rolled back)", got)
	}
}

func TestForeignObjectRejected(t *testing.T) {
	c1, _ := New(Options{Shards: 2})
	c2, _ := New(Options{Shards: 2})
	foreign := newAccountOn(c2, 0, "x")
	tx := c1.Begin()
	if _, err := tx.Branch(foreign); err == nil || !strings.Contains(err.Error(), "not on any shard") {
		t.Fatalf("Branch(foreign) = %v, want not-on-any-shard error", err)
	}
	_ = tx.Abort()
	r := c1.BeginReadOnly()
	defer r.Abort()
	if _, err := r.Branch(foreign); err == nil || !strings.Contains(err.Error(), "not on any shard") {
		t.Fatalf("ReadTx Branch(foreign) = %v, want not-on-any-shard error", err)
	}
}

func TestCommitCancelledBeforeDecision(t *testing.T) {
	c, err := New(Options{Shards: 2, LockWait: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	a := newAccountOn(c, 0, "a")
	b := newAccountOn(c, 1, "b")
	fund(t, c, a, 100)

	ctx, cancel := context.WithCancel(context.Background())
	tx := c.BeginCtx(ctx)
	brA, _ := tx.Branch(a)
	if _, err := a.Call(brA, adt.DebitInv(10)); err != nil {
		t.Fatal(err)
	}
	brB, _ := tx.Branch(b)
	if _, err := b.Call(brB, adt.CreditInv(10)); err != nil {
		t.Fatal(err)
	}
	cancel()
	err = tx.Commit()
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("Commit under cancelled ctx = %v, want context.Canceled", err)
	}
	// The protocol aborted every branch: balances are untouched and the
	// locks are free for the next transaction.
	if got := adt.AccountBalance(a.CommittedState()); got != 100 {
		t.Errorf("shard 0 balance = %d, want 100", got)
	}
	fund(t, c, a, 5) // would time out if the debit lock were still held
}

// TestFastPathCommitFailureReleasesLocks pins the error-recovery parity
// with the single-System path: when the fast-path branch commit fails
// (here ErrTxBusy — a call still in flight), the completed DTx must abort
// the branch itself, because the caller's Abort is a no-op by then.  A
// regression leaks the branch's locks forever.
func TestFastPathCommitFailureReleasesLocks(t *testing.T) {
	c, err := New(Options{Shards: 2, LockWait: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	acc := newAccountOn(c, 0, "acc")
	fund(t, c, acc, 100)
	q := c.Shard(0).NewObject("q", adt.NewQueue(), baseline.ConflictFor("hybrid", "Queue"))

	tx := c.Begin()
	br, err := tx.Branch(acc)
	if err != nil {
		t.Fatal(err)
	}
	// Take a lock other transactions conflict with (successful debits
	// conflict under Table V)...
	if res, err := acc.Call(br, adt.DebitInv(10)); err != nil || res != adt.ResOk {
		t.Fatalf("debit: %q %v", res, err)
	}
	// ...then busy the branch: Deq on an empty queue blocks in its call
	// until the lock wait expires.
	deqDone := make(chan struct{})
	go func() {
		defer close(deqDone)
		_, _ = q.Call(br, adt.DeqInv())
	}()
	time.Sleep(50 * time.Millisecond) // let the Deq enter and block
	if err := tx.Commit(); !errors.Is(err, core.ErrTxBusy) {
		t.Fatalf("Commit with a call in flight = %v, want ErrTxBusy", err)
	}
	<-deqDone

	// The failed commit must have unwound the branch: balance untouched
	// and the debit lock free for the next transaction.
	if got := adt.AccountBalance(acc.CommittedState()); got != 100 {
		t.Errorf("balance = %d, want 100", got)
	}
	tx2 := c.Begin()
	br2, err := tx2.Branch(acc)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := acc.Call(br2, adt.DebitInv(10)); err != nil || res != adt.ResOk {
		t.Fatalf("debit after failed commit: %q %v (locks leaked?)", res, err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
}

// mirroredInc commits one cross-shard transaction incrementing both
// counters by v, retrying transient failures.
func mirroredInc(c *Cluster, ctrA, ctrB *core.Object, v int64) error {
	for attempt := 0; attempt < 20; attempt++ {
		tx := c.Begin()
		err := func() error {
			brA, err := tx.Branch(ctrA)
			if err != nil {
				return err
			}
			if _, err := ctrA.Call(brA, adt.IncInv(v)); err != nil {
				return err
			}
			brB, err := tx.Branch(ctrB)
			if err != nil {
				return err
			}
			_, err = ctrB.Call(brB, adt.IncInv(v))
			return err
		}()
		if err == nil {
			if err = tx.Commit(); err == nil {
				return nil
			}
		}
		_ = tx.Abort()
		if !errors.Is(err, core.ErrTimeout) && !errors.Is(err, core.ErrDeadlock) && !errors.Is(err, ErrCommitAborted) {
			return err
		}
	}
	return fmt.Errorf("mirrored increment never committed")
}

// readMirror snapshots both counters in one cluster-wide read-only
// transaction; ok=false reports a reader timeout (a writer lingered in
// its commit window), which the caller just retries.
func readMirror(c *Cluster, ctrA, ctrB *core.Object) (a, b int64, ok bool, err error) {
	r := c.BeginReadOnly()
	read := func(obj *core.Object) (int64, bool, error) {
		br, err := r.Branch(obj)
		if err != nil {
			return 0, false, err
		}
		res, err := obj.ReadCall(br, adt.CtrReadInv())
		if errors.Is(err, core.ErrTimeout) {
			return 0, false, nil
		}
		if err != nil {
			return 0, false, err
		}
		return adt.Atoi(res), true, nil
	}
	a, okA, err := read(ctrA)
	if err != nil || !okA {
		_ = r.Abort()
		return 0, 0, false, err
	}
	b, okB, err := read(ctrB)
	if err != nil || !okB {
		_ = r.Abort()
		return 0, 0, false, err
	}
	return a, b, true, r.Commit()
}

// TestClusterStressGlobalAtomicity is the acceptance stress: many workers
// run a mix of single-shard and cross-shard account transfers while a
// mirrored pair of counters is kept equal by always-cross-shard updates
// and observed by cluster-wide snapshots.  The shared recorder must verify
// as a single globally hybrid atomic history — global atomicity, not
// per-shard atomicity — and money must be conserved.
// TestClusterStressGlobalAtomicity runs the full mixed workload over the
// direct transport, bare and behind scripted message faults.  Global
// atomicity must hold identically.
func TestClusterStressGlobalAtomicity(t *testing.T) {
	for _, cfg := range []struct {
		name   string
		faults bool
	}{
		{"direct", false},
		{"direct+faults", true},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			runClusterStress(t, cfg.faults)
		})
	}
}

func runClusterStress(t *testing.T, faults bool) {
	const (
		shards  = 4
		workers = 8
		txEach  = 25
		opening = 1_000
	)
	rec := verify.NewRecorder()
	opts := Options{Shards: shards, LockWait: 2 * time.Second, Sink: rec}
	if faults {
		// Intermittent scripted faults: every few commit rounds lose a
		// prepare (the round aborts and is retried), duplicate a commit
		// decision (receiver idempotence), or lose a commit delivery
		// (the decision re-apply path heals it).  Atomicity must hold
		// identically to the fault-free runs.
		var round atomic.Int64
		opts.WrapTransport = func(shard int, tr commitproto.Transport) commitproto.Transport {
			ft := commitproto.NewFaultTransport()
			switch round.Add(1) % 11 {
			case 0:
				ft.Script(commitproto.ClassPrepare, commitproto.DropRequest)
			case 3:
				ft.Script(commitproto.ClassPrepare, commitproto.DropReply)
			case 6:
				ft.Script(commitproto.ClassCommit, commitproto.Dup)
			case 9:
				ft.Script(commitproto.ClassCommit, commitproto.DropRequest)
			}
			return ft.Wrap(tr)
		}
	}
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	accs := make([]*core.Object, shards)
	specs := make(histories.SpecMap)
	for i := range accs {
		name := fmt.Sprintf("acc%d", i)
		accs[i] = newAccountOn(c, i, name)
		specs[histories.ObjID(name)] = adt.NewAccount()
		fund(t, c, accs[i], opening)
	}
	ctrA := newCounterOn(c, 0, "ctrA")
	ctrB := newCounterOn(c, 1, "ctrB")
	specs["ctrA"], specs["ctrB"] = adt.NewCounter(), adt.NewCounter()

	var workersWG, bgWG sync.WaitGroup
	errs := make(chan error, workers+2)
	for w := 0; w < workers; w++ {
		workersWG.Add(1)
		go func(w int) {
			defer workersWG.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 0xda7a))
			for i := 0; i < txEach; i++ {
				src := rng.IntN(shards)
				dst := src
				if rng.IntN(100) < 50 { // half the transfers cross shards
					dst = (src + 1 + rng.IntN(shards-1)) % shards
				}
				amt := 1 + int64(rng.IntN(5))
				committed := false
				var lastErr error
				for attempt := 0; attempt < 20 && !committed; attempt++ {
					tx := c.Begin()
					err := func() error {
						brS, err := tx.Branch(accs[src])
						if err != nil {
							return err
						}
						res, err := accs[src].Call(brS, adt.DebitInv(amt))
						if err != nil {
							return err
						}
						if res != adt.ResOk {
							return nil // overdraft refused: commit as-is
						}
						brD, err := tx.Branch(accs[dst])
						if err != nil {
							return err
						}
						_, err = accs[dst].Call(brD, adt.CreditInv(amt))
						return err
					}()
					if err == nil {
						if err = tx.Commit(); err == nil {
							committed = true
							break
						}
					}
					_ = tx.Abort()
					lastErr = err
					if !errors.Is(err, core.ErrTimeout) && !errors.Is(err, core.ErrDeadlock) && !errors.Is(err, ErrCommitAborted) {
						errs <- fmt.Errorf("worker %d: %v", w, err)
						return
					}
				}
				if !committed {
					errs <- fmt.Errorf("worker %d: transfer never committed: %v", w, lastErr)
					return
				}
			}
		}(w)
	}

	stop := make(chan struct{})
	bgWG.Add(1)
	go func() { // mirrored cross-shard counter writer
		defer bgWG.Done()
		for v := int64(1); ; v++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := mirroredInc(c, ctrA, ctrB, v%7); err != nil {
				errs <- err
				return
			}
		}
	}()
	bgWG.Add(1)
	go func() { // snapshot reader: the mirror must look equal at one instant
		defer bgWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			a, b, ok, err := readMirror(c, ctrA, ctrB)
			if err != nil {
				errs <- err
				return
			}
			if ok && a != b {
				errs <- fmt.Errorf("snapshot saw ctrA=%d ctrB=%d — cross-shard commit torn", a, b)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	// Stop the background churn once the workers finish, then collect the
	// first failure from anyone.
	workersWG.Wait()
	close(stop)
	bgWG.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	total := int64(0)
	for _, acc := range accs {
		total += adt.AccountBalance(acc.CommittedState())
	}
	if total != shards*opening {
		t.Fatalf("money not conserved: %d != %d", total, shards*opening)
	}
	if a, b := adt.CounterValue(ctrA.CommittedState()), adt.CounterValue(ctrB.CommittedState()); a != b {
		t.Fatalf("mirror torn at rest: ctrA=%d ctrB=%d", a, b)
	}

	isReadOnly := func(id histories.TxID) bool { return strings.HasPrefix(string(id), "R") }
	if err := verify.CheckGeneralizedHybridAtomic(rec.History(), specs, isReadOnly); err != nil {
		t.Fatalf("global history not hybrid atomic: %v", err)
	}
	st := c.Stats()
	if st.CrossShardCommits == 0 || st.FastPathCommits == 0 {
		t.Fatalf("stress exercised only one commit path: %+v", st)
	}
	t.Logf("stress: %s, %d events", st, rec.Len())
}

// TestSnapshotConsistencyAcrossShards hammers the mirrored-counter
// invariant harder: every snapshot that completes must observe the two
// counters equal, or the snapshot timestamp machinery is broken.
func TestSnapshotConsistencyAcrossShards(t *testing.T) {
	rec := verify.NewRecorder()
	c, err := New(Options{Shards: 2, LockWait: 2 * time.Second, Sink: rec})
	if err != nil {
		t.Fatal(err)
	}
	ctrA := newCounterOn(c, 0, "ctrA")
	ctrB := newCounterOn(c, 1, "ctrB")

	stop := make(chan struct{})
	writerErr := make(chan error, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for v := int64(1); ; v++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := mirroredInc(c, ctrA, ctrB, v%5); err != nil {
				writerErr <- err
				return
			}
		}
	}()

	consistent := 0
	for i := 0; i < 200; i++ {
		a, b, ok, err := readMirror(c, ctrA, ctrB)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			continue // reader timed out behind a commit window; retry
		}
		if a != b {
			t.Fatalf("snapshot %d: ctrA=%d ctrB=%d — cross-shard snapshot torn", i, a, b)
		}
		consistent++
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-writerErr:
		t.Fatal(err)
	default:
	}
	if consistent == 0 {
		t.Fatal("no snapshot completed")
	}

	specs := histories.SpecMap{"ctrA": adt.NewCounter(), "ctrB": adt.NewCounter()}
	isReadOnly := func(id histories.TxID) bool { return strings.HasPrefix(string(id), "R") }
	if err := verify.CheckGeneralizedHybridAtomic(rec.History(), specs, isReadOnly); err != nil {
		t.Fatalf("global history: %v", err)
	}
	t.Logf("%d/200 snapshots consistent", consistent)
}
