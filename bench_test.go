// The paper's scheme comparison as runnable Go benchmarks, one family per
// claim (B1 concurrent enqueues, B2 blind writes, B3 banking mix, B4
// Semiqueue vs Queue, B5 compaction, B8 Set churn), each under hybrid,
// commutativity and read/write locking:
//
//	go test -bench . -benchmem -run '^$' .
//
// This is the interim comparison until the repository benchmark
// (bash benchmark/run.sh) carries a scheme axis.  The headline metric is
// waits/op — the lock conflicts each scheme induces, which is what the
// paper is about; internal/core's TestGrantMatrix pins the same cells
// deterministically.  Do not rank schemes by ns/op here: every call
// executes under the object monitor, so with instantly committing
// transactions all schemes serialize on the monitor anyway, and the hybrid
// scheme pays extra immutable-state copying for concurrency it cannot
// cash in.  Lock conflicts turn into lost throughput only when
// transactions hold locks across real work.
package hybridcc

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hybridcc/internal/adt"
	"hybridcc/internal/core"
	"hybridcc/internal/depend"
	"hybridcc/internal/histories"
	"hybridcc/internal/lockmachine"
	"hybridcc/internal/spec"
	"hybridcc/internal/tstamp"
)

// benchLockWait is generous so blocked schemes pay wait time rather than
// retry churn.
const benchLockWait = 100 * time.Millisecond

// runSchemeBench drives one committed transaction per iteration across
// parallel goroutines.
func runSchemeBench(b *testing.B, sys *System, body func(tx *Tx, rng *rand.Rand) error) {
	b.Helper()
	var seed atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(seed.Add(1)))
		for pb.Next() {
			if err := sys.Atomically(func(tx *Tx) error { return body(tx, rng) }); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	st := sys.Stats()
	b.ReportMetric(float64(st.Waits)/float64(b.N), "waits/op")
	b.ReportMetric(float64(st.Timeouts)/float64(b.N), "timeouts/op")
}

// BenchmarkB1_QueueEnqueue reproduces experiment B1: concurrent enqueuers
// under the three schemes.  Expected: hybrid shows ~0 waits/op; the
// baselines serialize enqueues.  All goroutines contend on one shared
// queue, rotated every 4096 transactions so the immutable-state copy cost
// stays bounded as b.N scales (the contention behaviour under study is
// unaffected — every active transaction still targets the same object).
func BenchmarkB1_QueueEnqueue(b *testing.B) {
	for _, scheme := range []Scheme{Hybrid, Commutativity, ReadWrite} {
		b.Run(string(scheme), func(b *testing.B) {
			sys := NewSystem(WithLockWait(benchLockWait))
			var cur atomic.Value
			cur.Store(Must(sys.NewQueue("q0", WithScheme(scheme))))
			var count atomic.Int64
			runSchemeBench(b, sys, func(tx *Tx, rng *rand.Rand) error {
				if c := count.Add(1); c%4096 == 0 {
					cur.Store(Must(sys.NewQueue(fmt.Sprintf("q%d", c), WithScheme(scheme))))
				}
				q := cur.Load().(*Queue)
				if err := q.Enq(tx, rng.Int63n(1000)); err != nil {
					return err
				}
				return q.Enq(tx, rng.Int63n(1000))
			})
		})
	}
}

// BenchmarkB2_FileBlindWrites reproduces experiment B2: the generalized
// Thomas Write Rule.  Expected: hybrid writers never wait.
func BenchmarkB2_FileBlindWrites(b *testing.B) {
	for _, scheme := range []Scheme{Hybrid, Commutativity, ReadWrite} {
		b.Run(string(scheme), func(b *testing.B) {
			sys := NewSystem(WithLockWait(benchLockWait))
			f := Must(sys.NewFile("f", WithScheme(scheme)))
			runSchemeBench(b, sys, func(tx *Tx, rng *rand.Rand) error {
				return f.Write(tx, rng.Int63n(1000))
			})
		})
	}
}

// BenchmarkB3_AccountMix reproduces experiment B3 at two overdraft rates.
// Expected: hybrid's advantage over commutativity is largest when
// overdrafts are rare (Post and Credit locks stay disjoint from debits).
func BenchmarkB3_AccountMix(b *testing.B) {
	cases := []struct {
		name        string
		debitBeyond int64
	}{
		{"rare-overdrafts", 10},
		{"heavy-overdrafts", 10_000_000},
	}
	for _, tc := range cases {
		for _, scheme := range []Scheme{Hybrid, Commutativity, ReadWrite} {
			b.Run(tc.name+"/"+string(scheme), func(b *testing.B) {
				sys := NewSystem(WithLockWait(benchLockWait))
				acct := Must(sys.NewAccount("a", WithScheme(scheme)))
				if err := sys.Atomically(func(tx *Tx) error { return acct.Credit(tx, 1_000_000) }); err != nil {
					b.Fatal(err)
				}
				runSchemeBench(b, sys, func(tx *Tx, rng *rand.Rand) error {
					switch rng.Intn(10) {
					case 0, 1, 2:
						return acct.Credit(tx, 1+rng.Int63n(10))
					case 3, 4:
						return acct.Post(tx, 1)
					default:
						_, err := acct.Debit(tx, 1+rng.Int63n(tc.debitBeyond))
						return err
					}
				})
			})
		}
	}
}

// BenchmarkB4_ProducerConsumer reproduces experiment B4: Semiqueue vs the
// two Queue conflict relations under a produce-heavy mixed load.
func BenchmarkB4_ProducerConsumer(b *testing.B) {
	variants := []struct {
		name  string
		build func(sys *core.System) *core.Object
		queue bool
	}{
		{"queue-tableII", func(sys *core.System) *core.Object {
			return sys.NewObject("o", adt.NewQueue(), depend.SymmetricClosure(depend.QueueDependencyII()))
		}, true},
		{"queue-tableIII", func(sys *core.System) *core.Object {
			return sys.NewObject("o", adt.NewQueue(), depend.SymmetricClosure(depend.QueueDependencyIII()))
		}, true},
		{"semiqueue", func(sys *core.System) *core.Object {
			return sys.NewObject("o", adt.NewSemiqueue(), depend.SymmetricClosure(depend.SemiqueueDependency()))
		}, false},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			sys := core.NewSystem(core.Options{LockWait: benchLockWait})
			obj := v.build(sys)
			// Prefill so consumers find committed items; the 50/50 mix
			// keeps the population a bounded random walk around this
			// level.
			for i := 0; i < 2000; i++ {
				tx := sys.Begin()
				inv := adt.InsInv(int64(i))
				if v.queue {
					inv = adt.EnqInv(int64(i))
				}
				if _, err := obj.Call(tx, inv); err != nil {
					b.Fatal(err)
				}
				if err := tx.Commit(); err != nil {
					b.Fatal(err)
				}
			}
			var seed atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewSource(seed.Add(1)))
				for pb.Next() {
					for {
						tx := sys.Begin()
						var err error
						if rng.Intn(100) < 50 {
							inv := adt.InsInv(rng.Int63n(1000))
							if v.queue {
								inv = adt.EnqInv(rng.Int63n(1000))
							}
							_, err = obj.Call(tx, inv)
						} else {
							inv := adt.RemInv()
							if v.queue {
								inv = adt.DeqInv()
							}
							_, err = obj.Call(tx, inv)
						}
						if err == nil && tx.Commit() == nil {
							break
						}
						_ = tx.Abort()
					}
				}
			})
		})
	}
}

// BenchmarkB5_Compaction reproduces experiment B5: each iteration runs a
// fixed batch of 500 single-enqueue transactions on a fresh object, with
// and without the Section 6 horizon compaction.  Without compaction every
// call replays the whole accumulated history, so the batch is intrinsically
// quadratic — the fixed batch keeps iterations comparable and stops the
// benchmark framework from extrapolating into that quadratic growth.
// Expected: off costs several times on, and the unforgotten count equals
// the batch size instead of zero.
func BenchmarkB5_Compaction(b *testing.B) {
	const batch = 500
	for _, disable := range []bool{false, true} {
		name := "on"
		if disable {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			var unforgotten int
			for i := 0; i < b.N; i++ {
				sys := core.NewSystem(core.Options{LockWait: benchLockWait, DisableCompaction: disable})
				obj := sys.NewObject("q", adt.NewQueue(), depend.SymmetricClosure(depend.QueueDependencyII()))
				for j := 0; j < batch; j++ {
					tx := sys.Begin()
					if _, err := obj.Call(tx, adt.EnqInv(int64(j))); err != nil {
						b.Fatal(err)
					}
					if err := tx.Commit(); err != nil {
						b.Fatal(err)
					}
				}
				unforgotten = obj.UnforgottenLen()
			}
			b.ReportMetric(float64(unforgotten), "unforgotten")
			b.ReportMetric(float64(batch), "tx/batch")
		})
	}
}

// BenchmarkB8_SetChurn reproduces experiment B8: derived per-element
// locking on a Set.  Expected: hybrid waits stay ~0 across parallel
// clients; read/write locking collapses onto the writer lock.
func BenchmarkB8_SetChurn(b *testing.B) {
	for _, scheme := range []Scheme{Hybrid, Commutativity, ReadWrite} {
		b.Run(string(scheme), func(b *testing.B) {
			sys := NewSystem(WithLockWait(benchLockWait))
			s := Must(sys.NewSet("s", WithScheme(scheme)))
			runSchemeBench(b, sys, func(tx *Tx, rng *rand.Rand) error {
				k := rng.Int63n(4096)
				switch rng.Intn(3) {
				case 0:
					_, err := s.Insert(tx, k)
					return err
				case 1:
					_, err := s.Remove(tx, k)
					return err
				default:
					_, err := s.Member(tx, k)
					return err
				}
			})
		})
	}
}

// --- Microbenchmarks of the substrate ---

// BenchmarkDerivationTableII measures the mechanical invalidated-by
// derivation for the Queue (the cost of deriving a lock table from a
// specification).
func BenchmarkDerivationTableII(b *testing.B) {
	sp := adt.NewQueue()
	universe := adt.QueueUniverse([]int64{1, 2})
	for i := 0; i < b.N; i++ {
		if depend.InvalidatedBy(sp, universe, 3, 2).Len() == 0 {
			b.Fatal("derivation produced nothing")
		}
	}
}

// BenchmarkConflictCheck measures one conflict-relation evaluation, the
// inner loop of lock acquisition.
func BenchmarkConflictCheck(b *testing.B) {
	c := depend.SymmetricClosure(depend.AccountDependency())
	p, q := adt.Credit(5), adt.Overdraft(10)
	for i := 0; i < b.N; i++ {
		if !c.Conflicts(p, q) {
			b.Fatal("must conflict")
		}
	}
}

// BenchmarkLockMachineRespond measures the formal LOCK automaton's
// response-granting path (view replay plus conflict scan).
func BenchmarkLockMachineRespond(b *testing.B) {
	m := lockmachine.New("X", adt.NewQueue(), depend.SymmetricClosure(depend.QueueDependencyII()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%512 == 0 {
			// The formal machine keeps full intentions (no compaction);
			// reset periodically so the benchmark measures the grant path,
			// not unbounded history replay.
			m = lockmachine.New("X", adt.NewQueue(), depend.SymmetricClosure(depend.QueueDependencyII()))
		}
		tx := histories.TxID(fmt.Sprintf("T%d", i))
		if err := m.Invoke(tx, adt.EnqInv(int64(i%100))); err != nil {
			b.Fatal(err)
		}
		if _, ok, err := m.TryRespond(tx); err != nil || !ok {
			b.Fatalf("respond failed: %v %v", ok, err)
		}
		if err := m.Commit(tx, histories.Timestamp(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// counterSnapshot4 returns a System with one Counter holding a four-digit
// value, and a Snapshot callback that reads it four times through ReadAt.
func counterSnapshot4(tb testing.TB) (*System, func(*ReadTx) error) {
	sys := NewSystem()
	c := Must(sys.NewCounter("c"))
	if err := sys.Atomically(func(tx *Tx) error { return c.Inc(tx, 4100) }); err != nil {
		tb.Fatal(err)
	}
	return sys, func(r *ReadTx) error {
		for i := 0; i < 4; i++ {
			if v, err := c.ReadAt(r); err != nil || v != 4100 {
				return fmt.Errorf("ReadAt = %d, %v", v, err)
			}
		}
		return nil
	}
}

// BenchmarkCounterReadAt measures the facade's typed snapshot read end to
// end — Snapshot, four Counter.ReadAt, commit — as mem-readmix's readers run
// it: the count comes off the snapshot state, no response string is
// formatted and parsed back, and nothing is allocated.
func BenchmarkCounterReadAt(b *testing.B) {
	sys, read := counterSnapshot4(b)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := sys.Snapshot(read); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkTimestampSource measures timestamp generation.
func BenchmarkTimestampSource(b *testing.B) {
	src := tstamp.NewSource()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			src.Next(0)
		}
	})
}

// BenchmarkSpecReplay measures serial-specification replay, the
// view-validation primitive.
func BenchmarkSpecReplay(b *testing.B) {
	sp := adt.NewAccount()
	h := []spec.Op{adt.Credit(100), adt.Post(2), adt.Debit(50), adt.Overdraft(1_000_000)}
	for i := 0; i < b.N; i++ {
		if !spec.Legal(sp, h) {
			b.Fatal("sequence must be legal")
		}
	}
}

// BenchmarkDialedPayment runs payment(1) and payment(7) — a Debit, then
// one or seven Credits, all on one shard — and cross payment(1), whose
// Credit is on the other shard, over two in-test shard servers on
// loopback, and reports round_trips/op as the shards' listeners count them
// (direction flips ÷ 2, as benchmark/proxy.go does).  The Credits go
// write-behind, so the one-shard shapes take three round trips: the Debit,
// the owed replies, the commit.  The cross shape takes three too (3.00
// round trips/op, 11.0 syscr/op, 6.0 syscw/op at -benchtime 20000x, against
// 4.1–4.3, 12.8–13.7 and 9.1–9.3 when each decide was written on its own):
// a committed round returns with its decides buffered, each rides ahead of
// its connection's next frame — the Debit, or the Credit's frame and the
// prepare behind it — and the shard answers them in one write.  Where
// /proc/self/io can be read it also reports syscr/op and syscw/op, the
// read and write system calls of the client and both shards together.
func BenchmarkDialedPayment(b *testing.B) {
	for _, shape := range []struct {
		name           string
		credits, shard int
	}{{"payment(1)", 1, 0}, {"payment(7)", 7, 0}, {"cross payment(1)", 1, 1}} {
		credits := shape.credits
		b.Run(shape.name, func(b *testing.B) {
			wc := newWireCounter()
			c, accts := dialAccounts(b, 2, credits+1, time.Second, 5*time.Second, wc)
			from, to := accts[0][0], accts[shape.shard][1:]
			if err := c.Atomically(func(tx *DTx) error { return from.Credit(tx, 1<<40) }); err != nil {
				b.Fatal(err)
			}
			before := wc.roundTrips()
			readsBefore, writesBefore, ioOK := procIO()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.Atomically(func(tx *DTx) error {
					if ok, err := from.Debit(tx, int64(credits)); err != nil || !ok {
						return fmt.Errorf("debit: ok=%v err=%v", ok, err)
					}
					for _, a := range to {
						if err := a.Credit(tx, 1); err != nil {
							return err
						}
					}
					return nil
				}); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric((wc.roundTrips()-before)/float64(b.N), "round_trips/op")
			if reads, writes, ok := procIO(); ok && ioOK {
				b.ReportMetric((reads-readsBefore)/float64(b.N), "syscr/op")
				b.ReportMetric((writes-writesBefore)/float64(b.N), "syscw/op")
			}
		})
	}
}

// procIO returns the process's read and write system call counts from
// /proc/self/io, and false where that file cannot be read.
func procIO() (reads, writes float64, ok bool) {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, 0, false
	}
	for _, line := range strings.Split(string(b), "\n") {
		name, v, _ := strings.Cut(line, ": ")
		switch n, _ := strconv.ParseFloat(v, 64); name {
		case "syscr":
			reads = n
		case "syscw":
			writes = n
		}
	}
	return reads, writes, true
}
