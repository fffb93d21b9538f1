package core

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"hybridcc/internal/adt"
	"hybridcc/internal/baseline"
	"hybridcc/internal/depend"
	"hybridcc/internal/spec"
)

// Micro-benchmarks for the three hot paths this runtime optimizes: the
// uncontended grant (compiled conflict check + incremental view), the
// lock-free snapshot read (published tail, no mutex), and commit (tail
// merge + snapshot publication + waiter scan).  Run with -benchmem; CI's
// bench-smoke step keeps them compiling and runnable.

// BenchmarkGrantFastPath measures the per-call cost of a granted
// operation: non-conflicting Account credits inside a long transaction,
// committed every 64 calls to keep intentions lists bounded.
func BenchmarkGrantFastPath(b *testing.B) {
	sys := NewSystem(Options{})
	obj := sys.NewObjectSeeded("hot", baseline.SpecFor("Account"),
		baseline.ConflictFor("hybrid", "Account"), baseline.UniverseFor("Account"))
	inv := adt.CreditInv(1)
	tx := sys.Begin()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := obj.Call(tx, inv); err != nil {
			b.Fatal(err)
		}
		if i%64 == 63 {
			if err := tx.Commit(); err != nil {
				b.Fatal(err)
			}
			tx = sys.Begin()
		}
	}
	b.StopTimer()
	_ = tx.Commit()
}

// BenchmarkLockFreeReadCall measures one snapshot read on the published
// committed tail — no mutex, no allocation beyond the response.
func BenchmarkLockFreeReadCall(b *testing.B) {
	sys := NewSystem(Options{})
	obj := sys.NewObject("ctr", adt.NewCounter(), depend.SymmetricClosure(depend.CounterDependency()))
	tx := sys.Begin()
	if _, err := obj.Call(tx, adt.IncInv(41)); err != nil {
		b.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		b.Fatal(err)
	}
	inv := adt.CtrReadInv()
	rt := sys.BeginReadOnly()
	defer rt.Commit()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := obj.ReadCall(rt, inv); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLockFreeReadCallParallel is the contended variant: every
// worker reads the same hot object through its own snapshot transaction.
// With GOMAXPROCS > 1 throughput should scale with cores — the readers
// share no mutable state but the (read-only) snapshot pointer.
func BenchmarkLockFreeReadCallParallel(b *testing.B) {
	sys := NewSystem(Options{})
	obj := sys.NewObject("ctr", adt.NewCounter(), depend.SymmetricClosure(depend.CounterDependency()))
	tx := sys.Begin()
	if _, err := obj.Call(tx, adt.IncInv(41)); err != nil {
		b.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		b.Fatal(err)
	}
	inv := adt.CtrReadInv()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rt := sys.BeginReadOnly()
		defer rt.Commit()
		for pb.Next() {
			if _, err := obj.ReadCall(rt, inv); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// snapshotBenchSystem returns a Counter holding a four-digit value (so a
// read's response is a formatted string, not one of strconv's constants).
func snapshotBenchSystem(tb testing.TB) (*System, *Object, spec.Invocation) {
	sys := NewSystem(Options{})
	return sys, snapshotBenchCounter(tb, sys, "ctr"), adt.CtrReadInv()
}

func snapshotBenchCounter(tb testing.TB, sys *System, name string) *Object {
	obj := sys.NewObject(name, adt.NewCounter(), depend.SymmetricClosure(depend.CounterDependency()))
	tx := sys.Begin()
	if _, err := obj.Call(tx, adt.IncInv(4100)); err != nil {
		tb.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		tb.Fatal(err)
	}
	return obj
}

// snapshot4Reads is the whole life of a facade Snapshot of four reads:
// pooled begin, four ReadCalls, commit, recycle.
func snapshot4Reads(sys *System, obj *Object, inv spec.Invocation) error {
	rt := sys.BeginReadOnlyPooledCtx(nil)
	defer sys.RecycleRead(rt)
	for i := 0; i < 4; i++ {
		if _, err := obj.ReadCall(rt, inv); err != nil {
			_ = rt.Abort()
			return err
		}
	}
	return rt.Commit()
}

// BenchmarkSnapshot4Reads measures the reader path end to end — registry
// pin, timestamp stamp, four lock-free reads, release — with no sink.
func BenchmarkSnapshot4Reads(b *testing.B) {
	sys, obj, inv := snapshotBenchSystem(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := snapshot4Reads(sys, obj, inv); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshot4ReadsParallel runs it from every core at once, all on
// one object: the readers write no shared word, and read the clock they
// stamp themselves from and the object's snapshot pointer.
func BenchmarkSnapshot4ReadsParallel(b *testing.B) {
	sys, obj, inv := snapshotBenchSystem(b)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := snapshot4Reads(sys, obj, inv); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkSnapshot4ReadsDisjointParallel gives every goroutine a counter of
// its own.  Nothing a reader writes is on a line another reader touches —
// its stamp is a load of the clock — so ns/op about halves from -cpu 1 to
// -cpu 2.  A slot that runs out of stamps in one gap draws from the clock
// once every 256 snapshots here, with no writer to open a new gap.
func BenchmarkSnapshot4ReadsDisjointParallel(b *testing.B) {
	sys, inv := NewSystem(Options{}), adt.CtrReadInv()
	own := make([]*Object, runtime.GOMAXPROCS(0)) // RunParallel starts that many goroutines
	for i := range own {
		own[i] = snapshotBenchCounter(b, sys, fmt.Sprintf("own%d", i))
	}
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		obj := own[next.Add(1)-1]
		for pb.Next() {
			if err := snapshot4Reads(sys, obj, inv); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkCommitNoWaiters measures a single-op transaction end to end:
// begin, one grant, commit (timestamp draw, tail merge, fold, snapshot
// publication, empty waiter scan).
func BenchmarkCommitNoWaiters(b *testing.B) {
	sys := NewSystem(Options{})
	obj := sys.NewObjectSeeded("hot", baseline.SpecFor("Account"),
		baseline.ConflictFor("hybrid", "Account"), baseline.UniverseFor("Account"))
	inv := adt.CreditInv(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := sys.Begin()
		if _, err := obj.Call(tx, inv); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCommitPooledNoWaiters is BenchmarkCommitNoWaiters on the pooled
// pipeline — the Atomically hot path: the Tx, its object list, its lock
// record, and its scratch buffers all come from the free lists.  The
// allocs/op delta against BenchmarkCommitNoWaiters is the pooling win
// recorded in BENCH_core.json.
func BenchmarkCommitPooledNoWaiters(b *testing.B) {
	sys := NewSystem(Options{})
	obj := sys.NewObjectSeeded("hot", baseline.SpecFor("Account"),
		baseline.ConflictFor("hybrid", "Account"), baseline.UniverseFor("Account"))
	inv := adt.CreditInv(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := sys.BeginPooledCtx(nil)
		if _, err := obj.Call(tx, inv); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
		sys.Recycle(tx)
	}
}

// payment8System is the update path's own workload in miniature — mem-hot's
// transaction: eight prefunded hybrid Accounts; one payment debits 7 from
// one of them and credits 1 to each of the others, eight grants and an
// eight-object commit.  Money is conserved, so no debit ever overdraws.
func payment8System(tb testing.TB) (*System, []*Object) {
	sys := NewSystem(Options{})
	accs := make([]*Object, 8)
	tx := sys.Begin()
	for i := range accs {
		accs[i] = sys.NewObjectSeeded(string(rune('a'+i)), baseline.SpecFor("Account"),
			baseline.ConflictFor("hybrid", "Account"), baseline.UniverseFor("Account"))
		if _, err := accs[i].Call(tx, adt.CreditInv(1<<40)); err != nil {
			tb.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		tb.Fatal(err)
	}
	return sys, accs
}

var (
	payment8Debit  = adt.DebitInv(7)
	payment8Credit = adt.CreditInv(1)
)

// payment8 runs one payment out of accs[src] on a pooled transaction.
func payment8(sys *System, accs []*Object, src int) error {
	tx := sys.BeginPooledCtx(nil)
	if _, err := accs[src].Call(tx, payment8Debit); err != nil {
		return err
	}
	for i, a := range accs {
		if i == src {
			continue
		}
		if _, err := a.Call(tx, payment8Credit); err != nil {
			return err
		}
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	sys.Recycle(tx)
	return nil
}

// BenchmarkPayment8 measures the whole update path — eight grants, one
// commit over eight objects — with nobody else in the System.
func BenchmarkPayment8(b *testing.B) {
	sys, accs := payment8System(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := payment8(sys, accs, i%len(accs)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPayment8Parallel is BenchmarkPayment8 from every P at once:
// payments out of the same account wait for each other's commit (successful
// debits conflict), the credits run together, and every commit's critical
// sections are what the others wait out.
func BenchmarkPayment8Parallel(b *testing.B) {
	sys, accs := payment8System(b)
	var next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		src := int(next.Add(1))
		for pb.Next() {
			src++
			if err := payment8(sys, accs, src%len(accs)); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkGrantHolders measures one pooled grant and commit of Inc(1) on
// a Counter beside n−1 other transactions holding Inc(1) there (Inc/Inc
// commute under hybrid): the cost of finding a transaction's lock record,
// checking conflicts against every holder, removing the record and folding
// under the holders' smallest bound, as the holder count grows.  No
// benchmark workload has more than two holders per object; this is where
// many holders get measured.  Every 1024 operations the holders are
// replaced, with the timer stopped, so that folding keeps up.
func BenchmarkGrantHolders(b *testing.B) {
	for _, n := range []int{1, 8, 64, 512} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			sys := NewSystem(Options{})
			obj := sys.NewObjectSeeded("ctr", baseline.SpecFor("Counter"),
				baseline.ConflictFor("hybrid", "Counter"), baseline.UniverseFor("Counter"))
			inv := adt.IncInv(1)
			others := make([]*Tx, n-1)
			hold := func() {
				for i := range others {
					if others[i] != nil {
						_ = others[i].Abort()
					}
					others[i] = sys.Begin()
					if _, err := obj.Call(others[i], inv); err != nil {
						b.Fatal(err)
					}
				}
			}
			hold()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%1024 == 1023 {
					b.StopTimer()
					hold()
					b.StartTimer()
				}
				tx := sys.BeginPooledCtx(nil)
				if _, err := obj.Call(tx, inv); err != nil {
					b.Fatal(err)
				}
				if err := tx.Commit(); err != nil {
					b.Fatal(err)
				}
				sys.Recycle(tx)
			}
		})
	}
}
