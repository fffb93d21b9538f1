package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"hybridcc/internal/adt"
	"hybridcc/internal/depend"
	"hybridcc/internal/histories"
	"hybridcc/internal/tstamp"
	"hybridcc/internal/verify"
	"hybridcc/internal/wal"
)

// commitEntry is one way into commitTx.  Every test in this file runs
// over all of them and asserts the same post-state: there is one commit
// procedure, so there is one behaviour.
type commitEntry struct {
	name string
	// options adapts the System to the entry point.
	options func(*Options)
	// vote is what must happen before the decision can be applied (the
	// branch's logged yes vote); nil for the local entry points.
	vote func(t *Tx) error
	// commit completes t; coord is the external coordinator's clock.
	commit func(t *Tx, coord tstamp.Clock) error
}

var commitEntries = []commitEntry{
	{
		name:    "Commit",
		options: func(*Options) {},
		commit:  func(t *Tx, _ tstamp.Clock) error { return t.Commit() },
	},
	{
		name:    "CommitAt",
		options: func(o *Options) { o.ExternalTimestamps = true },
		vote: func(t *Tx) error {
			_, err := t.Prepare()
			return err
		},
		commit: func(t *Tx, coord tstamp.Clock) error {
			lower, err := t.Prepare() // idempotent: re-reads the voted bound
			if err != nil {
				return err
			}
			return t.CommitAt(coord.Next(lower))
		},
	},
}

func accountNamed(s *System, name string) *Object {
	return s.NewObject(name, adt.NewAccount(), depend.SymmetricClosure(depend.AccountDependency()))
}

// TestLogFailureAbortsCommit is the kill-before-fsync crash point on every
// commit entry point: the log dies between the transactions' work and their
// commit.  Every committer must see an error wrapping the log's, and be
// left aborted — locks released, blocked waiters woken, every touched
// object's commit window closed again — and recovery must agree that
// nothing committed.
func TestLogFailureAbortsCommit(t *testing.T) {
	for _, e := range commitEntries {
		t.Run(e.name, func(t *testing.T) {
			dir := t.TempDir()
			opts := Options{LockWait: 5 * time.Second, Durability: &Durability{Dir: dir, Sync: true}}
			e.options(&opts)
			s, err := OpenSystem(opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.FinishRecovery(); err != nil {
				t.Fatal(err)
			}
			a, b := accountNamed(s, "a"), accountNamed(s, "b")
			credit(t, s, a, 100)
			coord := tstamp.NewSource()
			coord.Observe(s.clock.Next(0))

			// n committers, each holding a credit lock at both objects
			// (credits never conflict with each other).
			const n = 8
			txs := make([]*Tx, n)
			for i := range txs {
				txs[i] = s.Begin()
				for _, o := range []*Object{a, b} {
					if _, err := o.Call(txs[i], adt.CreditInv(1)); err != nil {
						t.Fatal(err)
					}
				}
				if e.vote != nil {
					if err := e.vote(txs[i]); err != nil {
						t.Fatal(err)
					}
				}
			}
			// A debit that would overdraw conflicts with every held credit
			// (Table V): it parks until the credits complete.
			blocked := make(chan string, 1)
			go func() {
				w := s.Begin()
				defer w.Abort()
				res, err := a.Call(w, adt.DebitInv(1_000))
				if err != nil {
					res = "err: " + err.Error()
				}
				blocked <- res
			}()
			for deadline := time.Now().Add(2 * time.Second); waiters(a) != 1; {
				if time.Now().After(deadline) {
					t.Fatal("the overdrawing debit never blocked on the held credits")
				}
				time.Sleep(time.Millisecond)
			}

			before := s.Stats()
			s.CrashLog()
			errs := make([]error, n)
			var wg sync.WaitGroup
			for i := range txs {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					errs[i] = e.commit(txs[i], coord)
				}(i)
			}
			wg.Wait()

			for i, err := range errs {
				if !errors.Is(err, wal.ErrClosed) {
					t.Fatalf("committer %d with a dead log: got %v, want wal.ErrClosed", i, err)
				}
				if _, committed := txs[i].Timestamp(); committed {
					t.Errorf("committer %d reports committed after the log failure", i)
				}
				if err := txs[i].Abort(); !errors.Is(err, ErrTxDone) {
					t.Errorf("committer %d: Abort = %v, want ErrTxDone (already aborted)", i, err)
				}
			}
			select {
			case res := <-blocked:
				if res != adt.ResOverdraft {
					t.Errorf("woken debit = %q, want %q (no credit merged)", res, adt.ResOverdraft)
				}
			case <-time.After(2 * time.Second):
				t.Error("the blocked debit was not woken: the aborted commits still hold their locks")
			}
			after := s.Stats()
			if got := after.Aborted - before.Aborted; got < n {
				t.Errorf("Aborted rose by %d, want at least %d", got, n)
			}
			if after.Committed != before.Committed {
				t.Errorf("Committed rose by %d, want 0", after.Committed-before.Committed)
			}
			for _, o := range []*Object{a, b} {
				// A leaked window silently disables the lock-free read path
				// at the object forever.
				if w := o.windowWriters.Load(); w != 0 {
					t.Errorf("%s: windowWriters = %d after the aborted commits, want 0", o.name, w)
				}
			}
			if got := adt.AccountBalance(a.CommittedState()); got != 100 {
				t.Errorf("balance of a after the aborted commits = %d, want 100", got)
			}

			s2, err := OpenSystem(opts)
			if err != nil {
				t.Fatal(err)
			}
			a2 := accountNamed(s2, "a")
			accountNamed(s2, "b")
			if err := s2.FinishRecovery(); err != nil {
				t.Fatal(err)
			}
			if got := adt.AccountBalance(a2.CommittedState()); got != 100 {
				t.Errorf("recovered balance of a = %d, want 100", got)
			}
			s2.Close()
		})
	}
}

// TestSharedFsyncCrashUnderLoad is the durability horizon end to end (run
// with -race): eight committers of one-unit payments — each from a shared
// account (overlapping) to its own (disjoint) — on a syncing log with tiny
// segments and the background checkpointer on, so fsyncs are shared and
// rotations and checkpoint cuts land among them.  Committers must share
// fsyncs; after a crash mid-traffic every acknowledged payment is in the
// recovered balances (an unacknowledged one, at most one per committer,
// may be too: a crash between durable and acknowledged looks like this),
// no payment is half there, and the recorded history is hybrid atomic.
func TestSharedFsyncCrashUnderLoad(t *testing.T) {
	const (
		workers = 8
		shared  = 3
		opening = 1 << 20
	)
	rec := verify.NewRecorder()
	opts := Options{LockWait: 2 * time.Second, Sink: rec, Durability: &Durability{
		Dir: t.TempDir(), Sync: true, SegmentSize: 4 << 10, CheckpointBytes: 32 << 10,
	}}
	specs := make(histories.SpecMap)
	open := func() (*System, []*Object) {
		s, err := OpenSystem(opts)
		if err != nil {
			t.Fatal(err)
		}
		accs := make([]*Object, workers+shared)
		for i := range accs {
			accs[i] = accountNamed(s, fmt.Sprintf("acc%d", i))
			specs[accs[i].name] = adt.NewAccount()
		}
		if err := s.FinishRecovery(); err != nil {
			t.Fatal(err)
		}
		return s, accs
	}
	s, accs := open()
	for _, a := range accs {
		credit(t, s, a, opening)
	}

	acked := make([]int64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				tx := s.Begin()
				res, err := accs[workers+(w+i)%shared].Call(tx, adt.DebitInv(1))
				if err == nil && res == adt.ResOk {
					_, err = accs[w].Call(tx, adt.CreditInv(1))
				}
				if err != nil || res != adt.ResOk {
					_ = tx.Abort()
					t.Errorf("worker %d: payment %d refused: res=%q err=%v", w, i, res, err)
					return
				}
				if tx.Commit() != nil {
					return // the log died under us; stop like a crashed client
				}
				acked[w]++
			}
		}(w)
	}
	// A second of traffic, cut short at 2000 commits: the history check is
	// quadratic in them.
	for end := time.Now().Add(time.Second); time.Now().Before(end) && s.Stats().Committed < 2000; {
		time.Sleep(time.Millisecond)
	}
	if st := s.Stats(); st.LogFsyncs >= st.Committed {
		t.Errorf("%d commits took %d fsyncs: concurrent committers shared none", st.Committed, st.LogFsyncs)
	}
	s.CrashLog()
	wg.Wait()
	_ = s.Close() // stops the checkpointer; the log is already dead
	if err := verify.CheckHybridAtomic(rec.History(), specs); err != nil {
		t.Errorf("history not hybrid atomic: %v", err)
	}

	opts.Sink = nil
	s2, accs2 := open()
	defer s2.Close()
	var sum, total int64
	for i, a := range accs2 {
		bal := adt.AccountBalance(a.CommittedState())
		sum += bal
		if i < workers {
			total += acked[i]
			if got := bal - opening; got < acked[i] || got > acked[i]+1 {
				t.Errorf("%s recovered %d payments, %d were acknowledged", a.name, got, acked[i])
			}
		}
	}
	if want := int64(len(accs2)) * opening; sum != want {
		t.Errorf("recovered balances sum to %d, want %d: a payment is half applied", sum, want)
	}
	t.Logf("acknowledged and recovered %d payments", total)
}

// TestCommitEntryPointsAgree is the positive twin: the same seeded transfer
// schedule, run by concurrent workers, through each entry point must leave
// every object in the same committed state (the schedule's arithmetic) with
// every commit window closed and a hybrid atomic history.
func TestCommitEntryPointsAgree(t *testing.T) {
	const (
		accounts = 4
		workers  = 6
		each     = 40
		opening  = 10_000
	)
	type transfer struct{ from, to, amount int }
	rng := rand.New(rand.NewSource(13))
	plan := make([][]transfer, workers)
	want := make([]int64, accounts)
	for i := range want {
		want[i] = opening
	}
	for w := range plan {
		for i := 0; i < each; i++ {
			tr := transfer{from: rng.Intn(accounts), amount: 1 + rng.Intn(9)}
			tr.to = (tr.from + 1 + rng.Intn(accounts-1)) % accounts
			plan[w] = append(plan[w], tr)
			want[tr.from] -= int64(tr.amount)
			want[tr.to] += int64(tr.amount)
		}
	}

	for _, e := range commitEntries {
		t.Run(e.name, func(t *testing.T) {
			rec := verify.NewRecorder()
			opts := Options{LockWait: 2 * time.Second, Sink: rec}
			e.options(&opts)
			s := NewSystem(opts)
			coord := tstamp.NewSource()
			accs := make([]*Object, accounts)
			specs := make(histories.SpecMap)
			for i := range accs {
				accs[i] = accountNamed(s, fmt.Sprintf("acc%d", i))
				specs[accs[i].name] = adt.NewAccount()
				credit(t, s, accs[i], opening)
			}
			coord.Observe(s.clock.Next(0))

			var wg sync.WaitGroup
			for w := range plan {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for _, tr := range plan[w] {
						for attempt := 0; ; attempt++ {
							tx := s.Begin()
							res, err := accs[tr.from].Call(tx, adt.DebitInv(int64(tr.amount)))
							if err == nil && res == adt.ResOk {
								_, err = accs[tr.to].Call(tx, adt.CreditInv(int64(tr.amount)))
							}
							if err == nil && res == adt.ResOk {
								err = e.commit(tx, coord)
							}
							if err == nil && res == adt.ResOk {
								break
							}
							_ = tx.Abort()
							if attempt == 50 {
								t.Errorf("worker %d: transfer %+v never committed: res=%q err=%v", w, tr, res, err)
								return
							}
						}
					}
				}(w)
			}
			wg.Wait()

			for i, o := range accs {
				if got := adt.AccountBalance(o.CommittedState()); got != want[i] {
					t.Errorf("%s = %d, want %d", o.name, got, want[i])
				}
				if w := o.windowWriters.Load(); w != 0 {
					t.Errorf("%s: windowWriters = %d at rest, want 0", o.name, w)
				}
			}
			if err := verify.CheckHybridAtomic(rec.History(), specs); err != nil {
				t.Errorf("history not hybrid atomic: %v", err)
			}
		})
	}
}

// TestEmptyCommitLogsNothing: a transaction that touched no object leaves
// recovery nothing to replay, so its commit must cost neither an append nor
// an fsync.
func TestEmptyCommitLogsNothing(t *testing.T) {
	dir := t.TempDir()
	s := openDurable(t, dir)
	if err := s.FinishRecovery(); err != nil {
		t.Fatal(err)
	}
	acc := accountOn(s)
	credit(t, s, acc, 100)
	before := s.Stats()
	for i := 0; i < 10; i++ {
		if err := s.Begin().Commit(); err != nil {
			t.Fatal(err)
		}
	}
	after := s.Stats()
	if a, f := after.LogAppends-before.LogAppends, after.LogFsyncs-before.LogFsyncs; a != 0 || f != 0 {
		t.Fatalf("10 empty commits cost %d appends and %d fsyncs, want 0 and 0", a, f)
	}
	if got := after.Committed - before.Committed; got != 10 {
		t.Fatalf("Committed rose by %d, want 10", got)
	}
	credit(t, s, acc, 1) // the log still works after the skipped records
	s.CrashLog()

	s2 := openDurable(t, dir)
	acc2 := accountOn(s2)
	if err := s2.FinishRecovery(); err != nil {
		t.Fatal(err)
	}
	if got := adt.AccountBalance(acc2.CommittedState()); got != 101 {
		t.Fatalf("recovered balance = %d, want 101", got)
	}
	s2.Close()
}

// TestCommitAtRejectsNonPositiveTimestamp: zero is commitTx's "draw your
// own" value and no Prepare bound is negative, so a decision timestamp ≤ 0
// is a caller bug and must not silently commit at a local timestamp.
func TestCommitAtRejectsNonPositiveTimestamp(t *testing.T) {
	sys, c := counterSystem(Options{ExternalTimestamps: true})
	w := sys.Begin()
	mustCall(t, c, w, adt.IncInv(1))
	for _, ts := range []histories.Timestamp{0, -3} {
		if err := w.CommitAt(ts); err == nil || errors.Is(err, ErrTxDone) {
			t.Fatalf("CommitAt(%d) = %v, want a rejection that leaves the branch active", ts, err)
		}
	}
	if err := w.CommitAt(4); err != nil {
		t.Fatal(err)
	}
}
