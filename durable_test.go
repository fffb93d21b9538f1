package hybridcc

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// Public-API crash tests: Open/OpenCluster round trips with the recorder
// proving atomicity across the crash, plus the recover-while-committing
// stress.  The log is killed through the internal CrashLog hooks (in-
// package tests can reach s.inner), which is exactly what process death
// does to the write side.

func openAccounts(t *testing.T, dir string, rec *Recorder, opts ...Option) (*System, *Account) {
	t.Helper()
	var acc *Account
	if rec != nil {
		opts = append(opts, WithRecorder(rec))
	}
	s, err := Open(dir, func(s *System) error {
		var err error
		acc, err = s.NewAccount("acc")
		return err
	}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s, acc
}

// TestEmptyTransactionLogsNothing: a transaction that touched no object
// has nothing for recovery to replay, so committing it must not append —
// let alone fsync — a record; a reopen is indifferent to the absence.
func TestEmptyTransactionLogsNothing(t *testing.T) {
	dir := t.TempDir()
	s, acc := openAccounts(t, dir, nil)
	if err := s.Atomically(func(tx *Tx) error { return acc.Credit(tx, 5) }); err != nil {
		t.Fatal(err)
	}
	before := s.Stats()
	for i := 0; i < 10; i++ {
		if err := s.Atomically(func(*Tx) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	after := s.Stats()
	if after.Committed-before.Committed != 10 {
		t.Fatalf("Committed rose by %d, want 10", after.Committed-before.Committed)
	}
	if a, f := after.LogAppends-before.LogAppends, after.LogFsyncs-before.LogFsyncs; a != 0 || f != 0 {
		t.Fatalf("10 empty transactions cost %d appends and %d fsyncs, want 0 and 0", a, f)
	}
	s.inner.CrashLog()

	s2, acc2 := openAccounts(t, dir, nil)
	if got := acc2.CommittedBalance(); got != 5 {
		t.Fatalf("recovered balance = %d, want 5", got)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenRecoverVerify(t *testing.T) {
	dir := t.TempDir()
	s, acc := openAccounts(t, dir, NewRecorder())
	for i := 0; i < 10; i++ {
		err := s.Atomically(func(tx *Tx) error { return acc.Credit(tx, 5) })
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
	s.inner.CrashLog() // hard stop, no Close

	rec := NewRecorder()
	s2, acc2 := openAccounts(t, dir, rec)
	if got := acc2.CommittedBalance(); got != 50 {
		t.Fatalf("recovered balance = %d, want 50", got)
	}
	// The fresh recorder saw the replay as a serial prefix; new work on top
	// must verify with it as one history.
	if err := s2.Atomically(func(tx *Tx) error { return acc2.Credit(tx, 1) }); err != nil {
		t.Fatal(err)
	}
	if err := s2.Verify(); err != nil {
		t.Fatalf("Verify after recovery: %v", err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenClusterRecoverVerify(t *testing.T) {
	dir := t.TempDir()
	open := func(rec *Recorder) (*Cluster, *Account, *Account) {
		var a, b *Account
		c, err := OpenCluster(dir, 2, func(c *Cluster) error {
			var err error
			if a, err = c.NewAccount("a"); err != nil {
				return err
			}
			b, err = c.NewAccount("b")
			return err
		}, WithRecorder(rec), WithLockWait(2*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		return c, a, b
	}

	c, a, b := open(NewRecorder())
	seed := func(acc *Account, n int64) {
		if err := c.Atomically(func(tx *DTx) error { return acc.Credit(tx, n) }); err != nil {
			t.Fatal(err)
		}
	}
	seed(a, 100)
	seed(b, 100)
	// Cross-shard transfers through 2PC (when a and b land on different
	// shards; same-shard they still exercise the durable fast path).
	for i := 0; i < 5; i++ {
		err := c.Atomically(func(tx *DTx) error {
			if ok, err := a.Debit(tx, 10); err != nil || !ok {
				return err
			}
			return b.Credit(tx, 10)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
	c.inner.CrashLogs()

	c2, a2, b2 := open(NewRecorder())
	if got := a2.CommittedBalance(); got != 50 {
		t.Fatalf("a = %d, want 50", got)
	}
	if got := b2.CommittedBalance(); got != 150 {
		t.Fatalf("b = %d, want 150", got)
	}
	if err := c2.Atomically(func(tx *DTx) error { return a2.Credit(tx, 1) }); err != nil {
		t.Fatal(err)
	}
	if err := c2.Verify(); err != nil {
		t.Fatalf("Verify after cluster recovery: %v", err)
	}
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverWhileCommitting is the crash-under-load stress (run with
// -race): eight workers commit one-unit payments, each from a shared
// account to its own, on a syncing log with tiny segments and the
// background checkpointer on, and the log is killed mid-stream.  While it
// lived the committers shared fsyncs.  Every commit acknowledged before the
// kill must survive recovery (an unacknowledged one, at most one per
// worker, may: a kill between durable and acknowledged looks like this),
// no payment may be half there, and the recorder verifies the whole
// recovered history.  Its one leg is named for the one-transaction commit
// path it drives.
func TestRecoverWhileCommitting(t *testing.T) {
	t.Run("single", recoverWhileCommitting)
}

func recoverWhileCommitting(t *testing.T) {
	const (
		workers = 8
		shared  = 3
		opening = 1 << 20
	)
	dir := t.TempDir()
	opts := []Option{WithLockWait(2 * time.Second), WithSegmentSize(4 << 10), WithCheckpointBytes(32 << 10)}
	open := func(opts ...Option) (*System, []*Account) {
		accs := make([]*Account, workers+shared)
		s, err := Open(dir, func(s *System) (err error) {
			for i := range accs {
				if accs[i], err = s.NewAccount(fmt.Sprintf("acc%d", i)); err != nil {
					return err
				}
			}
			return nil
		}, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return s, accs
	}
	s, accs := open(opts...)
	for _, a := range accs {
		if err := s.Atomically(func(tx *Tx) error { return a.Credit(tx, opening) }); err != nil {
			t.Fatal(err)
		}
	}

	acked := make([]int64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				err := s.Atomically(func(tx *Tx) error {
					if ok, err := accs[workers+(w+i)%shared].Debit(tx, 1); err != nil {
						return err
					} else if !ok {
						t.Errorf("worker %d: debit %d refused on a prefunded account", w, i)
					}
					return accs[w].Credit(tx, 1)
				})
				if err != nil {
					return // log died under us; stop like a crashed client
				}
				acked[w]++
			}
		}(w)
	}
	// Let commits flow for a second, or 2000 of them (Verify is
	// quadratic in the history), then pull the plug.
	for end := time.Now().Add(time.Second); time.Now().Before(end) && s.Stats().Committed < 2000; {
		time.Sleep(time.Millisecond)
	}
	if st := s.Stats(); st.LogFsyncs >= st.Committed {
		t.Errorf("%d commits took %d fsyncs: concurrent committers shared none", st.Committed, st.LogFsyncs)
	}
	s.inner.CrashLog()
	wg.Wait()
	_ = s.Close() // stops the checkpointer; the log is already dead

	s2, accs2 := open(append(opts, WithRecorder(NewRecorder()))...)
	var sum, total int64
	for i, a := range accs2 {
		bal := a.CommittedBalance()
		sum += bal
		if i < workers {
			total += acked[i]
			if got := bal - opening; got < acked[i] || got > acked[i]+1 {
				t.Errorf("acc%d recovered %d payments, %d were acknowledged", i, got, acked[i])
			}
		}
	}
	if want := int64(len(accs2)) * opening; sum != want {
		t.Errorf("recovered balances sum to %d, want %d: a payment is half applied", sum, want)
	}
	if err := s2.Verify(); err != nil {
		t.Fatalf("Verify after crash under load: %v", err)
	}
	t.Logf("acknowledged and recovered %d commits", total)
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWithFsyncOff: without fsync a clean Close still recovers everything
// (the buffer is flushed), but a crash loses the buffered tail — cleanly,
// as if those transactions aborted, never as torn state.
func TestWithFsyncOff(t *testing.T) {
	dir := t.TempDir()
	s, acc := openAccounts(t, dir, nil, WithFsync(false))
	for i := 0; i < 10; i++ {
		if err := s.Atomically(func(tx *Tx) error { return acc.Credit(tx, 1) }); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Stats().LogFsyncs; got != 0 {
		t.Fatalf("LogFsyncs = %d with fsync off", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, acc2 := openAccounts(t, dir, nil, WithFsync(false))
	if got := acc2.CommittedBalance(); got != 10 {
		t.Fatalf("balance after clean close = %d, want 10", got)
	}
	// Now crash with a buffered tail: those commits are simply gone.
	for i := 0; i < 5; i++ {
		if err := s2.Atomically(func(tx *Tx) error { return acc2.Credit(tx, 1) }); err != nil {
			t.Fatal(err)
		}
	}
	s2.inner.CrashLog()

	s3, acc3 := openAccounts(t, dir, nil, WithFsync(false))
	if got := acc3.CommittedBalance(); got != 10 {
		t.Fatalf("balance after buffered crash = %d, want 10 (tail lost cleanly)", got)
	}
	s3.Close()
}

// TestLateRegistrationRejected: an object the log knows about must be
// registered inside the setup callback; registering it afterwards returns
// an error instead of silently dropping its recovered history.
func TestLateRegistrationRejected(t *testing.T) {
	dir := t.TempDir()
	s, acc := openAccounts(t, dir, nil)
	if err := s.Atomically(func(tx *Tx) error { return acc.Credit(tx, 42) }); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen registering nothing — "acc" is now unclaimed recovered state.
	s2, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.NewAccount("acc"); err == nil || !strings.Contains(err.Error(), "registered after recovery") {
		t.Fatalf("late registration: err = %v", err)
	}
	// Unrelated new objects are fine.
	if _, err := s2.NewAccount("other"); err != nil {
		t.Fatal(err)
	}
	s2.Close()
}
