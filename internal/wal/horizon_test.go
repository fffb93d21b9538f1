package wal

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"
)

// syncGate replaces a log's syncFile seam so a test can hold an fsync open:
// every fsync announces itself on entered, then blocks until the test sends
// its verdict on release (nil runs the real fsync) or opens the gate.
type syncGate struct {
	entered chan *os.File
	release chan error
}

func gateSyncs(l *Log) *syncGate {
	g := &syncGate{entered: make(chan *os.File, 64), release: make(chan error)}
	l.mu.Lock()
	l.syncFile = func(f *os.File) error {
		g.entered <- f
		if err := <-g.release; err != nil {
			return err
		}
		return f.Sync()
	}
	l.mu.Unlock()
	return g
}

// open lets every later fsync through unheld.
func (g *syncGate) open() { close(g.release) }

// awaitEntered returns once an fsync is being held.
func (g *syncGate) awaitEntered(t *testing.T) *os.File {
	t.Helper()
	select {
	case f := <-g.entered:
		return f
	case <-time.After(10 * time.Second):
		t.Fatal("no fsync started")
		return nil
	}
}

// appender is one goroutine's AppendSync and its outcome.
type appender struct {
	rec  Record
	done chan struct{}
	err  error
}

func goAppendSync(l *Log, tx string, ts int64) *appender {
	a := &appender{rec: commitRec(tx, ts), done: make(chan struct{})}
	go func() {
		defer close(a.done)
		a.err = l.AppendSync(a.rec)
	}()
	return a
}

func (a *appender) returned() bool {
	select {
	case <-a.done:
		return true
	default:
		return false
	}
}

func (a *appender) wait(t *testing.T) error {
	t.Helper()
	select {
	case <-a.done:
		return a.err
	case <-time.After(10 * time.Second):
		t.Fatalf("AppendSync of %s never returned", a.rec.Tx)
		return nil
	}
}

// await polls cond (which must not need l.mu: a broken log may be stuck
// holding it) until it holds, failing the test after ten seconds.
func await(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// goWaiters starts k appenders while g holds an fsync and returns once all
// their records are appended — each is then inside syncLocked, or about to
// be — having checked that none of them started a second fsync.
func goWaiters(t *testing.T, l *Log, g *syncGate, prefix string, k int) []*appender {
	t.Helper()
	want := l.appends.Load() + int64(k)
	ws := make([]*appender, k)
	for i := range ws {
		ws[i] = goAppendSync(l, fmt.Sprintf("%s%d", prefix, i), int64(10+i))
	}
	await(t, "the waiters' appends", func() bool { return l.appends.Load() == want })
	time.Sleep(20 * time.Millisecond)
	if len(g.entered) != 0 {
		t.Fatal("a second fsync started while one was in flight")
	}
	return ws
}

// assertAckedSurvive reopens dir and checks the recovery contract from the
// appenders' side: whoever was acknowledged is in the recovered log.
func assertAckedSurvive(t *testing.T, dir string, as ...*appender) []Record {
	t.Helper()
	l, got, err := Open(dir, Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	have := map[string]bool{}
	for _, r := range got {
		have[r.Tx] = true
	}
	for _, a := range as {
		if a.err == nil && !have[a.rec.Tx] {
			t.Errorf("%s was acknowledged but a reopen does not return it (got %d records)", a.rec.Tx, len(got))
		}
	}
	return got
}

// TestPiggybackWindow: K appenders that arrive while an fsync is in flight
// are all acknowledged by the NEXT single fsync — two fsyncs for K+1
// records — and none of them returns while that fsync is still running.
func TestPiggybackWindow(t *testing.T) {
	const k = 6
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	g := gateSyncs(l)
	base := l.Stats().Fsyncs
	first := goAppendSync(l, "S", 1)
	g.awaitEntered(t) // fsync 1 covers S only and is held
	ws := goWaiters(t, l, g, "W", k)

	g.release <- nil // fsync 1 done: S returns, one waiter becomes the syncer
	if err := first.wait(t); err != nil {
		t.Fatal(err)
	}
	g.awaitEntered(t) // fsync 2, flushed after all K appends, is held
	time.Sleep(50 * time.Millisecond)
	for _, w := range ws {
		if w.returned() {
			t.Fatalf("%s returned while the fsync covering it was still running", w.rec.Tx)
		}
	}
	g.release <- nil
	for _, w := range ws {
		if err := w.wait(t); err != nil {
			t.Fatal(err)
		}
	}
	if n := l.Stats().Fsyncs - base; n != 2 {
		t.Fatalf("%d records took %d fsyncs, want 2", k+1, n)
	}
	g.open()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := assertAckedSurvive(t, dir, append(ws, first)...); len(got) != k+1 {
		t.Fatalf("reopen returned %d records, want %d", len(got), k+1)
	}
}

// TestFailedSyncFailsWindow: an fsync that fails poisons the log and fails
// the syncer AND every waiter above the old horizon — those the failed
// fsync would have covered and those that arrived during it: the whole
// window is of unknown durability and none of it is acknowledged — while
// what was acknowledged before it is still there on reopen.
func TestFailedSyncFailsWindow(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	g := gateSyncs(l)
	first := goAppendSync(l, "S", 1)
	g.awaitEntered(t)
	covered := goWaiters(t, l, g, "W", 4)
	g.release <- nil
	if err := first.wait(t); err != nil {
		t.Fatal(err)
	}
	g.awaitEntered(t) // one of covered is the syncer; its fsync covers all four
	window := append(covered, goWaiters(t, l, g, "L", 2)...)
	injected := errors.New("injected fsync failure")
	g.release <- injected
	syncers := 0
	for _, a := range window {
		if err := a.wait(t); !errors.Is(err, ErrFailed) {
			t.Fatalf("%s in the failed window: got %v, want ErrFailed", a.rec.Tx, err)
		}
		if errors.Is(a.err, injected) {
			syncers++
		}
	}
	if syncers != 1 {
		t.Fatalf("%d appenders returned the fsync's own error, want exactly the syncer", syncers)
	}
	for name, err := range map[string]error{"Append": l.Append(commitRec("T9", 9)), "Sync": l.Sync()} {
		if !errors.Is(err, ErrFailed) {
			t.Fatalf("%s after the failed fsync: got %v, want ErrFailed", name, err)
		}
	}
	assertAckedSurvive(t, dir, first)
}

// TestPoisonDuringSync: a write failure that poisons the log while an
// fsync is running leaves the file open for that fsync; the syncer closes
// it afterwards.
func TestPoisonDuringSync(t *testing.T) {
	l, _, err := Open(t.TempDir(), Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	g := gateSyncs(l)
	syncer := goAppendSync(l, "S", 1)
	held := g.awaitEntered(t)
	l.mu.Lock()
	_ = l.poisonLocked(errors.New("injected write failure"))
	l.mu.Unlock()
	if _, err := held.Stat(); err != nil {
		t.Fatalf("segment closed under the running fsync: %v", err)
	}
	g.open()
	if err := syncer.wait(t); err != nil {
		t.Fatalf("the fsync covered S and succeeded, yet: %v", err)
	}
	if _, err := held.Stat(); err == nil {
		t.Fatal("the syncer left the poisoned log's segment open")
	}
}

// TestCrashAndCloseDuringSync: Crash and Close wait out the fsync in flight
// (neither closes the file under it, neither deadlocks), and a waiter is
// acknowledged only if a reopen returns its record — after Crash the
// buffered waiters fail, after Close its one final fsync covers them.  No
// waiter starts an fsync of its own while Crash or Close is waiting.
func TestCrashAndCloseDuringSync(t *testing.T) {
	for name, tc := range map[string]struct {
		stop      func(*Log)
		waiterErr error
		fsyncs    int64
	}{
		"Crash": {func(l *Log) { l.Crash() }, ErrClosed, 1},
		"Close": {func(l *Log) { _ = l.Close() }, nil, 2},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			l, _, err := Open(dir, Options{Sync: true})
			if err != nil {
				t.Fatal(err)
			}
			g := gateSyncs(l)
			syncer := goAppendSync(l, "S", 1)
			held := g.awaitEntered(t)
			stopped := make(chan struct{})
			go func() {
				defer close(stopped)
				tc.stop(l)
			}()
			await(t, name+" to wait for the fsync", func() bool {
				if !l.mu.TryLock() {
					return false
				}
				defer l.mu.Unlock()
				return l.sealers > 0
			})
			// Queued after the sealer, the waiters wake before it.
			ws := goWaiters(t, l, g, "W", 3)
			if _, err := held.Stat(); err != nil {
				t.Fatalf("segment closed under the running fsync: %v", err)
			}
			g.open()
			select {
			case <-stopped:
			case <-time.After(10 * time.Second):
				t.Fatalf("%s deadlocked behind the fsync", name)
			}
			if err := syncer.wait(t); err != nil {
				t.Fatalf("the syncer's own fsync succeeded, yet: %v", err)
			}
			for _, w := range ws {
				if err := w.wait(t); !errors.Is(err, tc.waiterErr) {
					t.Fatalf("waiter %s: got %v, want %v", w.rec.Tx, err, tc.waiterErr)
				}
			}
			if n := l.Stats().Fsyncs; n != tc.fsyncs {
				t.Fatalf("%d fsyncs, want %d", n, tc.fsyncs)
			}
			assertAckedSurvive(t, dir, append(ws, syncer)...)
		})
	}
}

// TestRotationWaitsForSync: appends that fill the segment while an fsync
// is running on it do not rotate — the file is not closed under the fsync —
// and the syncer rotates once it is done.
func TestRotationWaitsForSync(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Sync: true, SegmentSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	g := gateSyncs(l)
	syncer := goAppendSync(l, "S", 1)
	held := g.awaitEntered(t)
	ws := goWaiters(t, l, g, "W", 3) // > 128 bytes: rotation is due
	if _, err := held.Stat(); err != nil {
		t.Fatalf("segment closed under the running fsync: %v", err)
	}
	g.open()
	all := append(ws, syncer)
	for _, a := range all {
		if err := a.wait(t); err != nil {
			t.Fatal(err)
		}
	}
	if n := l.Stats().Segments; n < 2 {
		t.Fatal("the deferred rotation never happened")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := assertAckedSurvive(t, dir, all...); len(got) != len(all) {
		t.Fatalf("reopen returned %d records, want %d", len(got), len(all))
	}
}

// TestSegmentDirSyncFailurePoisons: a new segment whose directory entry
// could not be fsynced must not take acknowledged commits — the failure
// poisons the log like any other failed fsync.
func TestSegmentDirSyncFailurePoisons(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Sync: true, SegmentSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	injected := errors.New("injected directory fsync failure")
	l.mu.Lock()
	l.syncFile = func(f *os.File) error {
		if f.Name() == dir {
			return injected
		}
		return f.Sync()
	}
	l.mu.Unlock()
	var acked []*appender
	for i := 0; ; i++ {
		a := &appender{rec: commitRec(fmt.Sprintf("T%d", i), int64(i+1))}
		if a.err = l.AppendSync(a.rec); a.err != nil {
			if !errors.Is(a.err, injected) {
				t.Fatalf("rotation failed with %v, want the directory fsync's error", a.err)
			}
			break
		}
		if acked = append(acked, a); i > 8 {
			t.Fatal("no rotation within 8 records of a 128-byte segment")
		}
	}
	if err := l.Append(commitRec("T99", 99)); !errors.Is(err, ErrFailed) {
		t.Fatalf("append after the failed rotation: got %v, want ErrFailed", err)
	}
	assertAckedSurvive(t, dir, acked...)
}

// BenchmarkAppendSyncParallel: concurrent committers on a Sync log share
// fsyncs — fsyncs/op falls below 1 as soon as two of them overlap.
func BenchmarkAppendSyncParallel(b *testing.B) {
	l, _, err := Open(b.TempDir(), Options{Sync: true})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	rec := commitRec("T", 1)
	base := l.Stats().Fsyncs
	var once sync.Once
	b.SetParallelism(4)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := l.AppendSync(rec); err != nil {
				once.Do(func() { b.Error(err) })
				return
			}
		}
	})
	b.ReportMetric(float64(l.Stats().Fsyncs-base)/float64(b.N), "fsyncs/op")
}
