package lockmachine

import (
	"math/rand"
	"testing"

	"hybridcc/internal/adt"
	"hybridcc/internal/depend"
	"hybridcc/internal/histories"
	"hybridcc/internal/spec"
)

const x = histories.ObjID("X")

func queueMachine() *Machine {
	return New(x, adt.NewQueue(), depend.SymmetricClosure(depend.QueueDependencyII()))
}

func mustInvoke(t *testing.T, m *Machine, tx histories.TxID, inv spec.Invocation) {
	t.Helper()
	if err := m.Invoke(tx, inv); err != nil {
		t.Fatalf("Invoke(%s, %s): %v", tx, inv, err)
	}
}

func mustRespond(t *testing.T, m *Machine, tx histories.TxID, res string) {
	t.Helper()
	ok, err := m.RespondWith(tx, res)
	if err != nil {
		t.Fatalf("RespondWith(%s, %s): %v", tx, res, err)
	}
	if !ok {
		t.Fatalf("RespondWith(%s, %s): refused", tx, res)
	}
}

func mustCommit(t *testing.T, m *Machine, tx histories.TxID, ts histories.Timestamp) {
	t.Helper()
	if err := m.Commit(tx, ts); err != nil {
		t.Fatalf("Commit(%s, %d): %v", tx, ts, err)
	}
}

// TestPaperQueueHistoryAccepted drives the Section 3.2 history through LOCK
// with Table II conflicts: concurrent enqueues are granted even though they
// do not commute, and the dequeuer sees items in commit-timestamp order.
func TestPaperQueueHistoryAccepted(t *testing.T) {
	m := queueMachine()
	mustInvoke(t, m, "P", adt.EnqInv(1))
	mustRespond(t, m, "P", adt.ResOk)
	mustInvoke(t, m, "Q", adt.EnqInv(2))
	mustRespond(t, m, "Q", adt.ResOk) // concurrent enqueue granted
	mustInvoke(t, m, "P", adt.EnqInv(3))
	mustRespond(t, m, "P", adt.ResOk)
	mustCommit(t, m, "P", 2)
	mustCommit(t, m, "Q", 1)

	// R dequeues: timestamp order is Q(2), P(1,3), so the front is 2.
	mustInvoke(t, m, "R", adt.DeqInv())
	res, ok, err := m.TryRespond("R")
	if err != nil || !ok {
		t.Fatalf("TryRespond(R): ok=%v err=%v", ok, err)
	}
	if res != "2" {
		t.Fatalf("first Deq = %s, want 2 (timestamp order)", res)
	}
	mustInvoke(t, m, "R", adt.DeqInv())
	mustRespond(t, m, "R", "1")
	mustCommit(t, m, "R", 3)

	h := m.History()
	if err := histories.WellFormed(h); err != nil {
		t.Fatalf("machine emitted ill-formed history: %v", err)
	}
	okAtomic, err := histories.HybridAtomic(h, histories.SpecMap{x: adt.NewQueue()})
	if err != nil {
		t.Fatal(err)
	}
	if !okAtomic {
		t.Errorf("accepted history not hybrid atomic:\n%s", h)
	}
}

// TestCommutativityRejectsConcurrentEnqueues shows the same scenario is
// refused under commutativity-based conflicts (Enq conflicts with Enq of a
// different item): the paper's motivating comparison.
func TestCommutativityRejectsConcurrentEnqueues(t *testing.T) {
	m := New(x, adt.NewQueue(), depend.SymmetricClosure(depend.QueueDependencyIII()))
	mustInvoke(t, m, "P", adt.EnqInv(1))
	mustRespond(t, m, "P", adt.ResOk)
	mustInvoke(t, m, "Q", adt.EnqInv(2))
	_, ok, err := m.TryRespond("Q")
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("Enq(2) must be blocked by P's Enq(1) lock under Table III conflicts")
	}
	// After P commits, Q's enqueue is granted.
	mustCommit(t, m, "P", 1)
	res, ok, err := m.TryRespond("Q")
	if err != nil || !ok || res != adt.ResOk {
		t.Fatalf("after P commits, Enq(2) must be granted: res=%q ok=%v err=%v", res, ok, err)
	}
}

func TestPartialDeqBlocksUntilItemCommitted(t *testing.T) {
	m := queueMachine()
	mustInvoke(t, m, "R", adt.DeqInv())
	if _, ok, _ := m.TryRespond("R"); ok {
		t.Fatal("Deq on empty queue must block")
	}
	// P enqueues but has not committed; R's view does not include P's
	// intentions, so Deq still blocks.
	mustInvoke(t, m, "P", adt.EnqInv(7))
	mustRespond(t, m, "P", adt.ResOk)
	if _, ok, _ := m.TryRespond("R"); ok {
		t.Fatal("Deq must not see uncommitted enqueues")
	}
	mustCommit(t, m, "P", 1)
	res, ok, err := m.TryRespond("R")
	if err != nil || !ok || res != "7" {
		t.Fatalf("Deq after commit: res=%q ok=%v err=%v", res, ok, err)
	}
}

func TestDeqLockConflict(t *testing.T) {
	// Table II: Deq conflicts with Enq of a different item.  While P holds
	// an Enq(5) lock, R cannot dequeue a committed 3.
	m := queueMachine()
	mustInvoke(t, m, "W", adt.EnqInv(3))
	mustRespond(t, m, "W", adt.ResOk)
	mustCommit(t, m, "W", 1)

	mustInvoke(t, m, "P", adt.EnqInv(5))
	mustRespond(t, m, "P", adt.ResOk)

	mustInvoke(t, m, "R", adt.DeqInv())
	if _, ok, _ := m.TryRespond("R"); ok {
		t.Fatal("Deq(3) conflicts with P's active Enq(5) under Table II")
	}
	// P aborts; its lock is released and the dequeue proceeds.
	if err := m.Abort("P"); err != nil {
		t.Fatal(err)
	}
	res, ok, err := m.TryRespond("R")
	if err != nil || !ok || res != "3" {
		t.Fatalf("Deq after abort: res=%q ok=%v err=%v", res, ok, err)
	}
}

func TestSemiqueueNondeterministicGrants(t *testing.T) {
	m := New(x, adt.NewSemiqueue(), depend.SymmetricClosure(depend.SemiqueueDependency()))
	for i, v := range []int64{1, 2} {
		tx := histories.TxID(rune('A' + i))
		mustInvoke(t, m, tx, adt.InsInv(v))
		mustRespond(t, m, tx, adt.ResOk)
		mustCommit(t, m, tx, histories.Timestamp(i+1))
	}
	// Two concurrent removers can both proceed by taking different items.
	mustInvoke(t, m, "R1", adt.RemInv())
	rs, err := m.GrantableResponses("R1")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 {
		t.Fatalf("GrantableResponses = %v, want both items", rs)
	}
	mustRespond(t, m, "R1", "1")
	mustInvoke(t, m, "R2", adt.RemInv())
	rs, err = m.GrantableResponses("R2")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || rs[0] != "2" {
		t.Fatalf("R2 grantable = %v, want only the item R1 did not take", rs)
	}
}

func TestAccountResponseDependentLocks(t *testing.T) {
	m := New(x, adt.NewAccount(), depend.SymmetricClosure(depend.AccountDependency()))
	// Fund the account.
	mustInvoke(t, m, "F", adt.CreditInv(10))
	mustRespond(t, m, "F", adt.ResOk)
	mustCommit(t, m, "F", 1)

	// P holds a Credit lock; Q's successful debit does not conflict.
	mustInvoke(t, m, "P", adt.CreditInv(5))
	mustRespond(t, m, "P", adt.ResOk)
	mustInvoke(t, m, "Q", adt.DebitInv(10))
	res, ok, err := m.TryRespond("Q")
	if err != nil || !ok || res != adt.ResOk {
		t.Fatalf("successful debit must not conflict with credit: res=%q ok=%v err=%v", res, ok, err)
	}
	// R attempts an overdraft: its Overdraft response conflicts with P's
	// Credit lock, so the response is refused.
	mustInvoke(t, m, "R", adt.DebitInv(100))
	if _, ok, _ := m.TryRespond("R"); ok {
		t.Fatal("overdraft response must be blocked by the active credit")
	}
}

func TestInvokeErrors(t *testing.T) {
	m := queueMachine()
	mustInvoke(t, m, "P", adt.EnqInv(1))
	if err := m.Invoke("P", adt.EnqInv(2)); err == nil {
		t.Error("second invocation while pending must fail")
	}
	mustRespond(t, m, "P", adt.ResOk)
	mustCommit(t, m, "P", 1)
	if err := m.Invoke("P", adt.EnqInv(2)); err == nil {
		t.Error("invocation after commit must fail")
	}
}

func TestRespondErrors(t *testing.T) {
	m := queueMachine()
	if _, err := m.GrantableResponses("P"); err == nil {
		t.Error("respond without pending invocation must fail")
	}
	if _, _, err := m.TryRespond("P"); err == nil {
		t.Error("TryRespond without pending must fail")
	}
	// Wrong response value is refused, not an error.
	mustInvoke(t, m, "P", adt.EnqInv(1))
	ok, err := m.RespondWith("P", "Bogus")
	if err != nil || ok {
		t.Errorf("bogus response: ok=%v err=%v", ok, err)
	}
}

func TestCommitErrors(t *testing.T) {
	m := queueMachine()
	mustInvoke(t, m, "P", adt.EnqInv(1))
	if err := m.Commit("P", 1); err == nil {
		t.Error("commit while pending must fail")
	}
	mustRespond(t, m, "P", adt.ResOk)
	mustCommit(t, m, "P", 5)
	if err := m.Commit("P", 5); err != nil {
		t.Errorf("repeat commit with same timestamp allowed by the paper: %v", err)
	}
	if err := m.Commit("P", 6); err == nil {
		t.Error("recommit with different timestamp must fail")
	}
	mustInvoke(t, m, "Q", adt.EnqInv(2))
	mustRespond(t, m, "Q", adt.ResOk)
	if err := m.Commit("Q", 5); err == nil {
		t.Error("timestamp reuse must fail")
	}
	if err := m.Commit("Q", 3); err == nil {
		t.Error("timestamp below lower bound (Q ran after clock reached 5) must fail")
	}
	if err := m.Commit("Q", 9); err != nil {
		t.Errorf("valid commit rejected: %v", err)
	}
	if err := m.Abort("Q"); err == nil {
		t.Error("abort after commit must fail")
	}
}

func TestAbortReleasesEverything(t *testing.T) {
	m := queueMachine()
	mustInvoke(t, m, "P", adt.EnqInv(1))
	if err := m.Abort("P"); err != nil {
		t.Fatal(err)
	}
	if len(m.Intentions("P")) != 0 {
		t.Error("abort must discard intentions")
	}
	if err := m.Commit("P", 1); err == nil {
		t.Error("commit after abort must fail")
	}
	// Commit without operations is fine for another transaction.
	if err := m.Commit("Z", 1); err != nil {
		t.Errorf("commit without operations must be allowed: %v", err)
	}
}

func TestViewAndPermanent(t *testing.T) {
	m := queueMachine()
	mustInvoke(t, m, "P", adt.EnqInv(1))
	mustRespond(t, m, "P", adt.ResOk)
	mustInvoke(t, m, "Q", adt.EnqInv(2))
	mustRespond(t, m, "Q", adt.ResOk)
	mustCommit(t, m, "Q", 1)

	// Permanent: only Q's committed enqueue.
	if got := m.Permanent(); !spec.SeqEqual(got, []spec.Op{adt.Enq(2)}) {
		t.Errorf("Permanent = %s", spec.SeqString(got))
	}
	// P's view: committed prefix then its own intentions.
	if got := m.View("P"); !spec.SeqEqual(got, []spec.Op{adt.Enq(2), adt.Enq(1)}) {
		t.Errorf("View(P) = %s", spec.SeqString(got))
	}
	mustCommit(t, m, "P", 2)
	if got := m.Permanent(); !spec.SeqEqual(got, []spec.Op{adt.Enq(2), adt.Enq(1)}) {
		t.Errorf("Permanent after P commits = %s", spec.SeqString(got))
	}
}

func TestHorizonAndCommon(t *testing.T) {
	m := queueMachine()
	if m.Horizon() != MinTS {
		t.Errorf("initial horizon = %d, want -inf", m.Horizon())
	}
	// P enqueues and commits at ts 1.
	mustInvoke(t, m, "P", adt.EnqInv(1))
	mustRespond(t, m, "P", adt.ResOk)
	mustCommit(t, m, "P", 1)
	// No active transactions: horizon is the max committed timestamp; the
	// strict < of Definition 22 keeps P itself out of the common prefix.
	if m.Horizon() != 1 {
		t.Errorf("horizon = %d, want 1", m.Horizon())
	}
	if len(m.Common()) != 0 {
		t.Errorf("Common = %s, want empty (strict <)", spec.SeqString(m.Common()))
	}
	// Q executes an operation: its bound is clock=1, so horizon stays 1.
	mustInvoke(t, m, "Q", adt.EnqInv(2))
	mustRespond(t, m, "Q", adt.ResOk)
	if m.Horizon() != 1 {
		t.Errorf("horizon with active Q = %d, want 1 (Q's bound)", m.Horizon())
	}
	mustCommit(t, m, "Q", 5)
	// Now only committed txs: horizon = 5 and P's intentions are foldable.
	if m.Horizon() != 5 {
		t.Errorf("horizon = %d, want 5", m.Horizon())
	}
	if got := m.Common(); !spec.SeqEqual(got, []spec.Op{adt.Enq(1)}) {
		t.Errorf("Common = %s, want [Enq(1)]", spec.SeqString(got))
	}
	if b, ok := m.Bound("Q"); ok {
		t.Errorf("bound retained after commit: %d", b)
	}
	if m.Clock() != 5 {
		t.Errorf("Clock = %d", m.Clock())
	}
}

// TestReaderPinsHorizonAndReadsSnapshot: an open reader holds the horizon
// at its timestamp, so a later commit stays out of the version and the
// reader reads the state as of its timestamp; it leaves a commit event only
// where it read, and its timestamp is taken.
//
// Mutation: drop the readers from foldHorizon.  The fold then moves Q's
// Inc(5), committed above the reader, into the version: Horizon is 3 and
// the read answers 6.
func TestReaderPinsHorizonAndReadsSnapshot(t *testing.T) {
	m := New(x, adt.NewCounter(), depend.SymmetricClosure(depend.CounterDependency()))
	mustInvoke(t, m, "P", adt.IncInv(1))
	mustRespond(t, m, "P", adt.ResOk)
	mustCommit(t, m, "P", 1)
	if n := m.Fold(); n != 1 || !spec.SeqEqual(m.Version(), []spec.Op{adt.IncInv(1).With(adt.ResOk)}) {
		t.Fatalf("Fold = %d, version %s: want P folded", n, spec.SeqString(m.Version()))
	}
	for _, tx := range []histories.TxID{"R", "S"} {
		if err := m.BeginRead(tx, map[histories.TxID]histories.Timestamp{"R": 2, "S": 4}[tx]); err != nil {
			t.Fatal(err)
		}
	}
	mustInvoke(t, m, "Q", adt.IncInv(5))
	mustRespond(t, m, "Q", adt.ResOk)
	mustCommit(t, m, "Q", 3)
	if h := m.Horizon(); h != 2 {
		t.Errorf("Horizon = %d, want 2: R's pin", h)
	}
	if n := m.Fold(); n != 0 {
		t.Errorf("Fold moved %d past the open reader", n)
	}
	if got, err := m.Read("R", adt.CtrReadInv()); err != nil || got != "1" {
		t.Errorf("R read %q, %v: want 1, the state as of 2", got, err)
	}
	if err := m.EndRead("R"); err != nil {
		t.Fatal(err)
	}
	if err := m.EndRead("S"); err != nil {
		t.Fatal(err)
	}
	if n := m.Fold(); n != 1 {
		t.Errorf("Fold after the readers ended moved %d, want Q", n)
	}

	if err := m.BeginRead("T", 3); err == nil {
		t.Error("a reader took Q's timestamp")
	}
	if err := m.BeginRead("P", 9); err == nil {
		t.Error("an update transaction began reading")
	}
	if _, err := m.Read("R", adt.CtrReadInv()); err == nil {
		t.Error("an ended reader read")
	}
	if err := m.BeginRead("U", 7); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Read("U", adt.IncInv(1)); err == nil {
		t.Error("a reader changed the state")
	}
	mustInvoke(t, m, "V", adt.IncInv(1))
	mustRespond(t, m, "V", adt.ResOk)
	if err := m.Commit("V", 7); err == nil {
		t.Error("an update transaction took the reader U's timestamp")
	}

	h := m.History()
	readOnly := func(tx histories.TxID) bool { return tx == "R" || tx == "S" || tx == "U" }
	if err := histories.WellFormedReadOnly(h, readOnly); err != nil {
		t.Fatal(err)
	}
	for _, e := range h {
		if e.Tx == "S" {
			t.Errorf("S read nothing here but left %v", e)
		}
	}
	if ok, err := histories.HybridAtomic(h, histories.SpecMap{x: adt.NewCounter()}); err != nil || !ok {
		t.Errorf("history not hybrid atomic (%v):\n%s", err, h)
	}
}

// randomDriver runs a random schedule against a machine and returns the
// accepted history.  Every error is fatal (the driver only performs
// transitions the machine's input contract allows).
func randomDriver(t *testing.T, rng *rand.Rand, m *Machine, sp spec.Spec, invs []spec.Invocation, nTx, steps int) histories.History {
	t.Helper()
	txs := make([]histories.TxID, nTx)
	for i := range txs {
		txs[i] = histories.TxID(rune('A' + i))
	}
	nextTS := histories.Timestamp(1)
	for i := 0; i < steps; i++ {
		tx := txs[rng.Intn(len(txs))]
		if m.Completed(tx) {
			continue
		}
		if _, pending := m.pending[tx]; pending {
			grantable, err := m.GrantableResponses(tx)
			if err != nil {
				t.Fatal(err)
			}
			if len(grantable) == 0 {
				continue // blocked; retried later
			}
			if _, err := m.RespondWith(tx, grantable[rng.Intn(len(grantable))]); err != nil {
				t.Fatal(err)
			}
			continue
		}
		switch rng.Intn(6) {
		case 0: // commit
			b, ok := m.Bound(tx)
			if !ok {
				b = MinTS
			}
			ts := nextTS
			if ts <= b {
				ts = b + 1
			}
			nextTS = ts + 1
			if err := m.Commit(tx, ts); err != nil {
				t.Fatal(err)
			}
		case 1: // abort
			if err := m.Abort(tx); err != nil {
				t.Fatal(err)
			}
		default: // invoke
			if err := m.Invoke(tx, invs[rng.Intn(len(invs))]); err != nil {
				t.Fatal(err)
			}
		}
	}
	return m.History()
}

// TestTheorem16Soundness model-checks the soundness direction: every
// history accepted by LOCK with a dependency-relation conflict is
// well-formed and online hybrid atomic.
func TestTheorem16Soundness(t *testing.T) {
	type object struct {
		name     string
		sp       spec.Spec
		conflict depend.Conflict
		invs     []spec.Invocation
	}
	objects := []object{
		{"Queue/TableII", adt.NewQueue(), depend.SymmetricClosure(depend.QueueDependencyII()),
			[]spec.Invocation{adt.EnqInv(1), adt.EnqInv(2), adt.DeqInv()}},
		{"Queue/TableIII", adt.NewQueue(), depend.SymmetricClosure(depend.QueueDependencyIII()),
			[]spec.Invocation{adt.EnqInv(1), adt.EnqInv(2), adt.DeqInv()}},
		{"Semiqueue", adt.NewSemiqueue(), depend.SymmetricClosure(depend.SemiqueueDependency()),
			[]spec.Invocation{adt.InsInv(1), adt.InsInv(2), adt.RemInv()}},
		{"Account", adt.NewAccount(), depend.SymmetricClosure(depend.AccountDependency()),
			[]spec.Invocation{adt.CreditInv(2), adt.PostInv(2), adt.DebitInv(1), adt.DebitInv(3)}},
		{"File", adt.NewFile(), depend.SymmetricClosure(depend.FileDependency()),
			[]spec.Invocation{adt.FileWriteInv(1), adt.FileWriteInv(2), adt.FileReadInv()}},
	}
	runs := 60
	if testing.Short() {
		runs = 10
	}
	for _, obj := range objects {
		obj := obj
		t.Run(obj.name, func(t *testing.T) {
			for seed := 0; seed < runs; seed++ {
				rng := rand.New(rand.NewSource(int64(seed)))
				m := New(x, obj.sp, obj.conflict)
				h := randomDriver(t, rng, m, obj.sp, obj.invs, 3, 14)
				if err := histories.WellFormed(h); err != nil {
					t.Fatalf("seed %d: ill-formed history: %v\n%s", seed, err, h)
				}
				specs := histories.SpecMap{x: obj.sp}
				ok, err := histories.OnlineHybridAtomicAt(h, x, specs)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if !ok {
					t.Fatalf("seed %d: accepted history not online hybrid atomic:\n%s", seed, h)
				}
			}
		})
	}
}

// TestTheorem17Necessity reproduces the necessity direction: for a conflict
// relation that is NOT a dependency relation, LOCK accepts a history that
// is not hybrid atomic.  The violating schedule is constructed from the
// Definition 3 counterexample exactly as in the paper's proof: P runs h and
// commits, Q runs p, R runs k, and Q commits with a lower timestamp than R.
func TestTheorem17Necessity(t *testing.T) {
	sp := adt.NewQueue()
	universe := adt.QueueUniverse([]int64{1, 2})
	// Weaken Table II by dropping the Deq-on-Enq dependency (keep only
	// Deq/Deq); the symmetric closure is then not a dependency relation.
	weak := depend.RelationFunc("weak", func(q, p spec.Op) bool {
		return q.Name == "Deq" && p.Name == "Deq" && q.Res == p.Res
	})
	conflict := depend.SymmetricClosure(weak)
	cx := depend.IsConflictDependency(sp, conflict, universe, 3, 3)
	if cx == nil {
		t.Fatal("weakened relation should not be a dependency relation")
	}

	m := New(x, sp, conflict)
	// P executes h and commits.
	for _, op := range cx.H {
		mustInvoke(t, m, "P", op.Inv())
		mustRespond(t, m, "P", op.Res)
	}
	mustCommit(t, m, "P", 1)
	// Q executes p.
	mustInvoke(t, m, "Q", cx.P.Inv())
	mustRespond(t, m, "Q", cx.P.Res)
	// R executes k; no operation of k conflicts with p, so every response
	// is granted.
	for _, op := range cx.K {
		mustInvoke(t, m, "R", op.Inv())
		mustRespond(t, m, "R", op.Res)
	}
	mustCommit(t, m, "Q", 2)
	mustCommit(t, m, "R", 3)

	h := m.History()
	if err := histories.WellFormed(h); err != nil {
		t.Fatalf("history ill-formed: %v", err)
	}
	ok, err := histories.HybridAtomic(h, histories.SpecMap{x: sp})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatalf("LOCK with a non-dependency conflict accepted history that is still hybrid atomic:\n%s", h)
	}
}

// TestLemma23CommonPrefixMonotone property-checks Lemma 23 / Theorem 24 on
// random schedules: the common prefix only ever grows.
func TestLemma23CommonPrefixMonotone(t *testing.T) {
	invs := []spec.Invocation{adt.EnqInv(1), adt.EnqInv(2), adt.DeqInv()}
	runs := 40
	if testing.Short() {
		runs = 8
	}
	for seed := 0; seed < runs; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		m := queueMachine()
		prev := m.Common()
		txs := []histories.TxID{"A", "B", "C"}
		nextTS := histories.Timestamp(1)
		for i := 0; i < 25; i++ {
			tx := txs[rng.Intn(len(txs))]
			if m.Completed(tx) {
				continue
			}
			if _, pending := m.pending[tx]; pending {
				if grantable, _ := m.GrantableResponses(tx); len(grantable) > 0 {
					if _, err := m.RespondWith(tx, grantable[rng.Intn(len(grantable))]); err != nil {
						t.Fatal(err)
					}
				}
			} else {
				switch rng.Intn(5) {
				case 0:
					b, ok := m.Bound(tx)
					if !ok {
						b = MinTS
					}
					ts := nextTS
					if ts <= b {
						ts = b + 1
					}
					nextTS = ts + 1
					if err := m.Commit(tx, ts); err != nil {
						t.Fatal(err)
					}
				case 1:
					if err := m.Abort(tx); err != nil {
						t.Fatal(err)
					}
				default:
					if err := m.Invoke(tx, invs[rng.Intn(len(invs))]); err != nil {
						t.Fatal(err)
					}
				}
			}
			cur := m.Common()
			if !spec.IsPrefix(prev, cur) {
				t.Fatalf("seed %d: common prefix shrank: %s then %s",
					seed, spec.SeqString(prev), spec.SeqString(cur))
			}
			if !spec.IsPrefix(cur, m.Permanent()) {
				t.Fatalf("seed %d: common not a prefix of permanent", seed)
			}
			prev = cur
		}
	}
}

func TestAccessors(t *testing.T) {
	m := queueMachine()
	if m.Object() != x {
		t.Errorf("Object = %q", m.Object())
	}
	if m.Spec().Name() != "Queue" {
		t.Errorf("Spec = %q", m.Spec().Name())
	}
}
