package core

import (
	"errors"
	"math/rand"
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

func queueSystem(opts Options) (*System, *Object) {
	sys := NewSystem(opts)
	obj := sys.NewObject("Q", adt.NewQueue(), depend.SymmetricClosure(depend.QueueDependencyII()))
	return sys, obj
}

func accountSystem(opts Options) (*System, *Object) {
	sys := NewSystem(opts)
	obj := sys.NewObject("A", adt.NewAccount(), depend.SymmetricClosure(depend.AccountDependency()))
	return sys, obj
}

func mustCall(t *testing.T, o *Object, tx *Tx, inv spec.Invocation) string {
	t.Helper()
	res, err := o.Call(tx, inv)
	if err != nil {
		t.Fatalf("Call(%s, %s): %v", tx.ID(), inv, err)
	}
	return res
}

func TestBasicCommit(t *testing.T) {
	sys, q := queueSystem(Options{})
	tx := sys.Begin()
	if res := mustCall(t, q, tx, adt.EnqInv(7)); res != adt.ResOk {
		t.Fatalf("Enq = %q", res)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, ok := tx.Timestamp(); !ok {
		t.Error("committed transaction must report a timestamp")
	}
	if got := adt.QueueItems(q.CommittedState()); len(got) != 1 || got[0] != 7 {
		t.Errorf("committed state = %v", got)
	}
}

func TestAbortDiscardsIntentions(t *testing.T) {
	sys, a := accountSystem(Options{})
	tx := sys.Begin()
	mustCall(t, a, tx, adt.CreditInv(100))
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if bal := adt.AccountBalance(a.CommittedState()); bal != 0 {
		t.Errorf("balance after abort = %d", bal)
	}
	if _, ok := tx.Timestamp(); ok {
		t.Error("aborted transaction must not report a timestamp")
	}
}

func TestIsolationUncommittedInvisible(t *testing.T) {
	sys, q := queueSystem(Options{LockWait: 30 * time.Millisecond})
	producer := sys.Begin()
	mustCall(t, q, producer, adt.EnqInv(1))

	// A reader cannot see the uncommitted item: its Deq blocks and times
	// out.
	reader := sys.Begin()
	_, err := q.Call(reader, adt.DeqInv())
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("Deq on uncommitted item: %v, want ErrTimeout", err)
	}
	// The producer itself sees its own intentions.
	res := mustCall(t, q, producer, adt.DeqInv())
	if res != "1" {
		t.Fatalf("producer Deq = %q", res)
	}
}

func TestConcurrentEnqueuesDoNotBlock(t *testing.T) {
	// The paper's headline queue behaviour: enqueues never conflict under
	// Table II even though they do not commute.
	sys, q := queueSystem(Options{LockWait: 5 * time.Second})
	tx1 := sys.Begin()
	tx2 := sys.Begin()
	mustCall(t, q, tx1, adt.EnqInv(1))
	mustCall(t, q, tx2, adt.EnqInv(2)) // must not block
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	// tx2 committed first, so its timestamp is earlier and item 2 is at
	// the front.
	got := adt.QueueItems(q.CommittedState())
	if len(got) != 2 || got[0] != 2 || got[1] != 1 {
		t.Errorf("committed order = %v, want [2 1] (timestamp order)", got)
	}
	if sys.Stats().Waits != 0 {
		t.Errorf("no call should have waited, stats = %s", sys.Stats())
	}
}

// waiters reports how many calls are parked in o's waiter queue.
func waiters(o *Object) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.waiterCount
}

// TestGrantMatrix is the paper's comparative claim, cell by cell: with one
// transaction holding the lock for held, a second transaction's asked is
// either granted at once (no call ever waits) or parks until the first
// commits.  Expected cells are read off Tables I–VI: hybrid is the
// symmetric closure of the minimal dependency relation (I, II, IV, V),
// commutativity is failure-to-commute (III for Queue, VI for Account),
// read/write makes every pair with a writer conflict.
func TestGrantMatrix(t *testing.T) {
	const grant, wait = false, true
	type cell struct {
		relation string // a scheme, or "tableIII" (Queue only)
		waits    bool
	}
	conflictFor := func(relation, typeName string) depend.Conflict {
		if relation == "tableIII" {
			return depend.SymmetricClosure(depend.QueueDependencyIII())
		}
		return baseline.ConflictFor(relation, typeName)
	}
	const hybrid, tableIII, commutativity, readwrite = "hybrid", "tableIII", "commutativity", "readwrite"
	cases := []struct {
		name        string
		typeName    string
		seed        []spec.Invocation // committed before either transaction opens
		held, asked spec.Invocation
		res         string // asked's response once granted; "" when several are legal
		cells       []cell
	}{
		// Table II leaves Enq/Enq empty; Table III (which is also the
		// queue's failure-to-commute relation) has v ≠ v′ there.
		{"Queue Enq‖Enq", "Queue", nil, adt.EnqInv(1), adt.EnqInv(2), adt.ResOk,
			[]cell{{hybrid, grant}, {tableIII, wait}, {commutativity, wait}, {readwrite, wait}}},
		// The other half of "incomparable": Table II makes Deq depend on
		// an Enq of a different item, Table III relates them not at all.
		{"Queue Enq‖Deq", "Queue", []spec.Invocation{adt.EnqInv(5)}, adt.EnqInv(1), adt.DeqInv(), "5",
			[]cell{{hybrid, wait}, {tableIII, grant}, {commutativity, grant}, {readwrite, wait}}},
		// Table I: writes depend on nothing (generalized Thomas Write
		// Rule); writes of different values do not commute.
		{"File Write‖Write", "File", nil, adt.FileWriteInv(1), adt.FileWriteInv(2), adt.ResOk,
			[]cell{{hybrid, grant}, {commutativity, wait}, {readwrite, wait}}},
		// Table IV: only removals of the same item are related, and
		// non-determinism makes commutativity coincide with it.
		{"Semiqueue Ins‖Ins", "Semiqueue", nil, adt.InsInv(1), adt.InsInv(2), adt.ResOk,
			[]cell{{hybrid, grant}, {commutativity, grant}, {readwrite, wait}}},
		{"Semiqueue Ins‖Rem", "Semiqueue", []spec.Invocation{adt.InsInv(5)}, adt.InsInv(1), adt.RemInv(), "",
			[]cell{{hybrid, grant}, {commutativity, grant}, {readwrite, wait}}},
		// Tables V and VI agree on both Debit columns against Credit and
		// on Overdraft against Post; they differ on Credit against Post,
		// which commutativity must serialize and hybrid need not.
		{"Account Credit‖Debit→Ok", "Account", []spec.Invocation{adt.CreditInv(10)}, adt.CreditInv(5), adt.DebitInv(3), adt.ResOk,
			[]cell{{hybrid, grant}, {commutativity, grant}, {readwrite, wait}}},
		{"Account Post‖Debit→Overdraft", "Account", []spec.Invocation{adt.CreditInv(10)}, adt.PostInv(2), adt.DebitInv(100), adt.ResOverdraft,
			[]cell{{hybrid, wait}, {commutativity, wait}, {readwrite, wait}}},
		{"Account Post‖Credit", "Account", []spec.Invocation{adt.CreditInv(10)}, adt.PostInv(2), adt.CreditInv(5), adt.ResOk,
			[]cell{{hybrid, grant}, {commutativity, wait}, {readwrite, wait}}},
		// A successful debit does not depend on interest, though the two do
		// not commute (TestClassMemoPerTable asks for it on both tables).
		{"Account Post‖Debit→Ok", "Account", []spec.Invocation{adt.CreditInv(10)}, adt.PostInv(2), adt.DebitInv(7), adt.ResOk,
			[]cell{{hybrid, grant}, {commutativity, wait}, {readwrite, wait}}},
	}
	for _, tc := range cases {
		for _, c := range tc.cells {
			t.Run(tc.name+"/"+c.relation, func(t *testing.T) {
				sys := NewSystem(Options{LockWait: 5 * time.Second})
				obj := sys.NewObject("o", baseline.SpecFor(tc.typeName), conflictFor(c.relation, tc.typeName))
				setup := sys.Begin()
				for _, inv := range tc.seed {
					mustCall(t, obj, setup, inv)
				}
				if err := setup.Commit(); err != nil {
					t.Fatal(err)
				}

				tx1, tx2 := sys.Begin(), sys.Begin()
				mustCall(t, obj, tx1, tc.held)
				type outcome struct {
					res string
					err error
				}
				done := make(chan outcome, 1)
				go func() {
					res, err := obj.Call(tx2, tc.asked)
					done <- outcome{res, err}
				}()
				// The call either returns or parks; see which.
				var o outcome
				parked := false
				for returned := false; !returned && !parked; {
					select {
					case o = <-done:
						returned = true
					default:
						if parked = waiters(obj) == 1; !parked {
							time.Sleep(time.Millisecond)
						}
					}
				}
				if parked != c.waits {
					t.Fatalf("%s while %s is held: parked=%v, the relation says %v", tc.asked, tc.held, parked, c.waits)
				}
				if parked {
					if err := tx1.Commit(); err != nil {
						t.Fatal(err)
					}
					o = <-done
				}
				if o.err != nil || (tc.res != "" && o.res != tc.res) {
					t.Fatalf("%s = %q, %v; want %q", tc.asked, o.res, o.err, tc.res)
				}
				wantWaits := int64(0)
				if c.waits {
					wantWaits = 1
				}
				if got := sys.Stats().Waits; got != wantWaits {
					t.Errorf("Waits = %d, want %d", got, wantWaits)
				}
				if err := tx2.Commit(); err != nil {
					t.Fatal(err)
				}
				if !c.waits {
					if err := tx1.Commit(); err != nil {
						t.Fatal(err)
					}
				}
			})
		}
	}
}

func TestDeqBlocksUntilProducerCommits(t *testing.T) {
	sys, q := queueSystem(Options{LockWait: 5 * time.Second})
	type result struct {
		res string
		err error
	}
	done := make(chan result)
	consumer := sys.Begin()
	go func() {
		res, err := q.Call(consumer, adt.DeqInv())
		done <- result{res, err}
	}()

	// Give the consumer time to block, then produce and commit.
	time.Sleep(20 * time.Millisecond)
	producer := sys.Begin()
	mustCall(t, q, producer, adt.EnqInv(42))
	if err := producer.Commit(); err != nil {
		t.Fatal(err)
	}
	r := <-done
	if r.err != nil || r.res != "42" {
		t.Fatalf("blocked Deq woke with res=%q err=%v", r.res, r.err)
	}
	if err := consumer.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestLockConflictTimesOut(t *testing.T) {
	// Table II: Deq conflicts with an active Enq of a different item.
	sys, q := queueSystem(Options{LockWait: 25 * time.Millisecond})
	setup := sys.Begin()
	mustCall(t, q, setup, adt.EnqInv(3))
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}
	holder := sys.Begin()
	mustCall(t, q, holder, adt.EnqInv(5))

	reader := sys.Begin()
	start := time.Now()
	_, err := q.Call(reader, adt.DeqInv())
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Errorf("timed out after %s, before the lock wait elapsed", elapsed)
	}
	if sys.Stats().Timeouts == 0 {
		t.Error("timeout not counted")
	}
}

func TestResponseDependentLocking(t *testing.T) {
	// Credit conflicts with Overdraft but not with successful Debit.
	sys, a := accountSystem(Options{LockWait: 25 * time.Millisecond})
	setup := sys.Begin()
	mustCall(t, a, setup, adt.CreditInv(10))
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}

	creditor := sys.Begin()
	mustCall(t, a, creditor, adt.CreditInv(5))

	// Successful debit proceeds concurrently with the credit.
	debitor := sys.Begin()
	if res := mustCall(t, a, debitor, adt.DebitInv(10)); res != adt.ResOk {
		t.Fatalf("Debit = %q", res)
	}
	// An overdraft attempt must block on the credit lock.
	over := sys.Begin()
	_, err := a.Call(over, adt.DebitInv(100))
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("overdraft attempt: %v, want ErrTimeout", err)
	}
	if err := creditor.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := debitor.Commit(); err != nil {
		t.Fatal(err)
	}
	// With the credit committed the overdraft can now be evaluated against
	// the new balance: 10+5-10 = 5 < 100, still an overdraft, but granted.
	if res := mustCall(t, a, over, adt.DebitInv(100)); res != adt.ResOverdraft {
		t.Fatalf("Debit(100) = %q, want Overdraft", res)
	}
}

func TestTxLifecycleErrors(t *testing.T) {
	sys, q := queueSystem(Options{})
	tx := sys.Begin()
	if err := tx.Commit(); err != nil {
		t.Fatalf("empty commit: %v", err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxDone) {
		t.Errorf("double commit: %v", err)
	}
	if err := tx.Abort(); !errors.Is(err, ErrTxDone) {
		t.Errorf("abort after commit: %v", err)
	}
	if _, err := q.Call(tx, adt.EnqInv(1)); !errors.Is(err, ErrTxDone) {
		t.Errorf("call after commit: %v", err)
	}
	if _, err := tx.Prepare(); !errors.Is(err, ErrTxDone) {
		t.Errorf("prepare after commit: %v", err)
	}
	if err := tx.CommitAt(99); !errors.Is(err, ErrExternalTS) {
		t.Errorf("CommitAt without external timestamps: %v", err)
	}

	tx2 := sys.Begin()
	if err := tx2.Abort(); err != nil {
		t.Fatalf("abort: %v", err)
	}
	if err := tx2.Abort(); !errors.Is(err, ErrTxDone) {
		t.Errorf("double abort: %v", err)
	}
}

func TestMultiObjectTransfer(t *testing.T) {
	sys := NewSystem(Options{})
	conflict := depend.SymmetricClosure(depend.AccountDependency())
	src := sys.NewObject("src", adt.NewAccount(), conflict)
	dst := sys.NewObject("dst", adt.NewAccount(), conflict)

	setup := sys.Begin()
	mustCall(t, src, setup, adt.CreditInv(100))
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}

	transfer := sys.Begin()
	if res := mustCall(t, src, transfer, adt.DebitInv(40)); res != adt.ResOk {
		t.Fatalf("Debit = %q", res)
	}
	mustCall(t, dst, transfer, adt.CreditInv(40))
	if err := transfer.Commit(); err != nil {
		t.Fatal(err)
	}
	if bal := adt.AccountBalance(src.CommittedState()); bal != 60 {
		t.Errorf("src balance = %d", bal)
	}
	if bal := adt.AccountBalance(dst.CommittedState()); bal != 40 {
		t.Errorf("dst balance = %d", bal)
	}
}

func TestCompactionBoundsMemory(t *testing.T) {
	sys, q := queueSystem(Options{})
	for i := 0; i < 200; i++ {
		tx := sys.Begin()
		mustCall(t, q, tx, adt.EnqInv(int64(i%5)))
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	// With no active transactions every committed intention folds.
	if n := q.UnforgottenLen(); n != 0 {
		t.Errorf("unforgotten after quiesce = %d, want 0", n)
	}
	if got := adt.QueueLen(q.CommittedState()); got != 200 {
		t.Errorf("queue length = %d", got)
	}
	if q.Stats().Folds != 200 {
		t.Errorf("folds = %d", q.Stats().Folds)
	}
}

func TestCompactionDisabledGrowsUnbounded(t *testing.T) {
	sys, q := queueSystem(Options{DisableCompaction: true})
	for i := 0; i < 50; i++ {
		tx := sys.Begin()
		mustCall(t, q, tx, adt.EnqInv(int64(i)))
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if n := q.UnforgottenLen(); n != 50 {
		t.Errorf("unforgotten without compaction = %d, want 50", n)
	}
}

func TestCompactionHeldBackByActiveTx(t *testing.T) {
	sys, q := queueSystem(Options{})
	// An active transaction that has executed an operation pins the
	// horizon at its bound.
	pinner := sys.Begin()
	mustCall(t, q, pinner, adt.EnqInv(99))

	for i := 0; i < 10; i++ {
		tx := sys.Begin()
		mustCall(t, q, tx, adt.EnqInv(int64(i)))
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if n := q.UnforgottenLen(); n != 10 {
		t.Errorf("unforgotten while pinned = %d, want 10", n)
	}
	// Completing the pinner releases the horizon.
	if err := pinner.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := q.UnforgottenLen(); n != 0 {
		t.Errorf("unforgotten after pinner commits = %d, want 0", n)
	}
}

// TestCompactionEquivalence runs the same randomized schedule with and
// without compaction and asserts identical visible behaviour (experiment
// M4: the Section 6 optimization does not change semantics).
func TestCompactionEquivalence(t *testing.T) {
	run := func(disable bool, seed int64) []string {
		rng := rand.New(rand.NewSource(seed))
		sys, q := queueSystem(Options{DisableCompaction: disable, LockWait: time.Millisecond})
		var trace []string
		var open []*Tx
		for step := 0; step < 120; step++ {
			switch rng.Intn(4) {
			case 0:
				tx := sys.Begin()
				open = append(open, tx)
			case 1:
				if len(open) > 0 {
					i := rng.Intn(len(open))
					tx := open[i]
					open = append(open[:i], open[i+1:]...)
					if rng.Intn(2) == 0 {
						_ = tx.Commit()
						trace = append(trace, "commit")
					} else {
						_ = tx.Abort()
						trace = append(trace, "abort")
					}
				}
			default:
				if len(open) > 0 {
					tx := open[rng.Intn(len(open))]
					var res string
					var err error
					if rng.Intn(3) == 0 {
						res, err = q.Call(tx, adt.DeqInv())
					} else {
						res, err = q.Call(tx, adt.EnqInv(int64(rng.Intn(4))))
					}
					if err != nil {
						res = "ERR"
					}
					trace = append(trace, res)
				}
			}
		}
		for _, tx := range open {
			_ = tx.Commit()
		}
		items := adt.QueueItems(q.CommittedState())
		for _, it := range items {
			trace = append(trace, adt.Itoa(it))
		}
		return trace
	}
	for seed := int64(0); seed < 10; seed++ {
		with := run(false, seed)
		without := run(true, seed)
		if len(with) != len(without) {
			t.Fatalf("seed %d: trace lengths differ: %d vs %d", seed, len(with), len(without))
		}
		for i := range with {
			if with[i] != without[i] {
				t.Fatalf("seed %d: traces diverge at %d: %q vs %q", seed, i, with[i], without[i])
			}
		}
	}
}

// TestRecordedHistoryHybridAtomic stress-tests the runtime and verifies the
// recorded global history offline: well-formed and hybrid atomic.  Once
// with both objects hybrid, and again with a commutativity (dynamic
// atomic) Queue beside the hybrid Account — the paper's §7 upward
// compatibility: mixing the two in one system keeps global atomicity.
func TestRecordedHistoryHybridAtomic(t *testing.T) {
	for _, queueScheme := range []string{"hybrid", "commutativity"} {
		t.Run("Queue="+queueScheme, func(t *testing.T) {
			testRecordedHistoryHybridAtomic(t, baseline.ConflictFor(queueScheme, "Queue"))
		})
	}
}

func testRecordedHistoryHybridAtomic(t *testing.T, queueConflict depend.Conflict) {
	rec := verify.NewRecorder()
	sys := NewSystem(Options{Sink: rec, LockWait: 50 * time.Millisecond})
	q := sys.NewObject("Q", adt.NewQueue(), queueConflict)
	a := sys.NewObject("A", adt.NewAccount(), depend.SymmetricClosure(depend.AccountDependency()))

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 30; i++ {
				tx := sys.Begin()
				ok := true
				for j := 0; j < 1+rng.Intn(3); j++ {
					var err error
					switch rng.Intn(4) {
					case 0:
						_, err = q.Call(tx, adt.EnqInv(int64(rng.Intn(5))))
					case 1:
						_, err = q.Call(tx, adt.DeqInv())
					case 2:
						_, err = a.Call(tx, adt.CreditInv(int64(rng.Intn(20))))
					default:
						_, err = a.Call(tx, adt.DebitInv(int64(rng.Intn(30))))
					}
					if err != nil {
						ok = false
						break
					}
				}
				if ok && rng.Intn(10) > 0 {
					_ = tx.Commit()
				} else {
					_ = tx.Abort()
				}
			}
		}(w)
	}
	wg.Wait()

	specs := histories.SpecMap{"Q": adt.NewQueue(), "A": adt.NewAccount()}
	if err := verify.CheckHybridAtomic(rec.History(), specs); err != nil {
		t.Fatal(err)
	}
	if rec.Len() == 0 {
		t.Fatal("nothing recorded")
	}
}

func TestTwoPhaseCommitIntegration(t *testing.T) {
	// Two sites with separate Systems sharing no clock; the coordinator's
	// clock plus Observe keeps timestamps consistent.
	recA, recB := verify.NewRecorder(), verify.NewRecorder()
	siteA := NewSystem(Options{Sink: recA, ExternalTimestamps: true})
	siteB := NewSystem(Options{Sink: recB, ExternalTimestamps: true})
	conflict := depend.SymmetricClosure(depend.AccountDependency())
	accA := siteA.NewObject("accA", adt.NewAccount(), conflict)
	accB := siteB.NewObject("accB", adt.NewAccount(), conflict)

	fund := siteA.Begin()
	mustCall(t, accA, fund, adt.CreditInv(50))
	if err := fund.Commit(); err != nil {
		t.Fatal(err)
	}

	// Distributed transfer: one branch per site.
	brA, brB := siteA.Begin(), siteB.Begin()
	if res := mustCall(t, accA, brA, adt.DebitInv(30)); res != adt.ResOk {
		t.Fatal("debit failed")
	}
	mustCall(t, accB, brB, adt.CreditInv(30))

	lowerA, err := brA.Prepare()
	if err != nil {
		t.Fatal(err)
	}
	lowerB, err := brB.Prepare()
	if err != nil {
		t.Fatal(err)
	}
	ts := lowerA + 1
	if lowerB >= lowerA {
		ts = lowerB + 1
	}
	// Globally unique in this two-site test by construction.
	if err := brA.CommitAt(ts); err != nil {
		t.Fatal(err)
	}
	if err := brB.CommitAt(ts); err != nil {
		t.Fatal(err)
	}
	if bal := adt.AccountBalance(accA.CommittedState()); bal != 20 {
		t.Errorf("site A balance = %d", bal)
	}
	if bal := adt.AccountBalance(accB.CommittedState()); bal != 30 {
		t.Errorf("site B balance = %d", bal)
	}
}

func TestStatsCounters(t *testing.T) {
	sys, q := queueSystem(Options{LockWait: 10 * time.Millisecond})
	tx := sys.Begin()
	mustCall(t, q, tx, adt.EnqInv(1))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if s := sys.Stats(); s.Begun != 1 || s.Committed != 1 || s.Calls != 1 {
		t.Errorf("after a commit: stats = %s", s)
	}
	tx2 := sys.Begin()
	mustCall(t, q, tx2, adt.EnqInv(2))
	mustCall(t, q, tx2, adt.EnqInv(3))
	// A transaction's calls reach Stats when it finishes, not before: the
	// open tx2 has begun and holds two grants at the object, but its calls
	// are not yet in the system-wide count.
	if s := sys.Stats(); s.Begun != 2 || s.Calls != 1 {
		t.Errorf("with a transaction open: stats = %s (its calls must not be visible yet)", s)
	}
	_ = tx2.Abort()

	s := sys.Stats()
	if s.Begun != 2 || s.Committed != 1 || s.Aborted != 1 || s.Calls != 3 {
		t.Errorf("after an abort: stats = %s (an abort flushes its calls too)", s)
	}
	os := q.Stats()
	if os.Granted != 3 || os.Commits != 1 || os.Aborts != 1 {
		t.Errorf("object stats = %+v", os)
	}
	if s.String() == "" {
		t.Error("stats must render")
	}
}

func TestObjectAccessors(t *testing.T) {
	sys, q := queueSystem(Options{})
	if q.Name() != "Q" {
		t.Errorf("Name = %q", q.Name())
	}
	if q.Spec().Name() != "Queue" {
		t.Errorf("Spec = %q", q.Spec().Name())
	}
	_ = sys
}

func TestDefaultOptions(t *testing.T) {
	sys := NewSystem(Options{})
	if sys.opts.LockWait != DefaultLockWait {
		t.Errorf("LockWait default = %s", sys.opts.LockWait)
	}
	if sys.clock == nil {
		t.Error("clock must default")
	}
}
