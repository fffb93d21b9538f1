//go:build !race

package hybridcc

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// The race detector changes allocation counts (and sync.Pool drops structs
// at random under it), so this file is built without it, as the ceilings of
// internal/core/alloc_test.go skip under it.

// snapshotTypedAllocCeiling bounds one facade Snapshot of typed getters
// without a recorder: four Counter.ReadAt, four Set.MemberAt, or four
// Directory.LookupAt.  The pooled handle, the registry slot and the typed
// getter — which takes its answer off the snapshot state through an adt
// accessor, formatting no response string — allocate nothing (steady state
// 0; 4 while Counter.ReadAt went through the string, one per read).
const snapshotTypedAllocCeiling = 0

func TestAllocCeilingSnapshotTyped(t *testing.T) {
	sys, counterRead := counterSnapshot4(t)
	set, dir := Must(sys.NewSet("s")), Must(sys.NewDirectory("d"))
	if err := sys.Atomically(func(tx *Tx) error {
		if _, err := set.Insert(tx, 1); err != nil {
			return err
		}
		_, err := dir.Bind(tx, "a", 2)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	four := func(read func(r *ReadTx) bool) func(*ReadTx) error {
		return func(r *ReadTx) error {
			for i := 0; i < 4; i++ {
				if !read(r) {
					return errors.New("wrong answer")
				}
			}
			return nil
		}
	}
	for _, row := range []struct {
		name string
		read func(*ReadTx) error
	}{
		{"Counter.ReadAt", counterRead},
		{"Set.MemberAt", four(func(r *ReadTx) bool {
			in, err := set.MemberAt(r, 1)
			return err == nil && in
		})},
		{"Directory.LookupAt", four(func(r *ReadTx) bool {
			v, ok, err := dir.LookupAt(r, "a")
			return err == nil && ok && v == 2
		})},
	} {
		cycle := func() {
			if err := sys.Snapshot(row.read); err != nil {
				t.Fatalf("%s: %v", row.name, err)
			}
		}
		for i := 0; i < 16; i++ { // warm the pool and the registry
			cycle()
		}
		if allocs := testing.AllocsPerRun(500, cycle); allocs > snapshotTypedAllocCeiling {
			t.Errorf("typed snapshot of four %s allocates %.1f/op, ceiling %d", row.name, allocs, snapshotTypedAllocCeiling)
		}
	}
}

// registerAccountAllocCeiling and registerAccountByteCeiling bound
// registering one Account on a System: the object, its lock-table map and
// committed-tail snapshot, and the two registry entries.  Every Account
// shares its type's policy set, so registration compiles no conflict table
// (steady state 6 allocations, ≈ 0.9 KB; 216 and ≈ 15 KB when each object
// compiled three tables of its own).
const (
	registerAccountAllocCeiling = 20
	registerAccountByteCeiling  = 2 << 10
)

func TestAllocCeilingRegisterAccount(t *testing.T) {
	const runs = 500
	sys := NewSystem()
	names := make([]string, runs+2)
	for i := range names {
		names[i] = fmt.Sprintf("acct-%d", i)
	}
	next := 0
	register := func() {
		Must(sys.NewAccount(names[next]))
		next++
	}
	register() // the first Account builds the type's policy set
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, register) // runs+1 registrations
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)
	if allocs > registerAccountAllocCeiling || bytes > registerAccountByteCeiling {
		t.Errorf("registering an Account allocates %.1f objects and %.0f B; ceilings %d and %d B",
			allocs, bytes, registerAccountAllocCeiling, registerAccountByteCeiling)
	}
}

// dialedPaymentAllocCeilings bound one dialed payment, as
// BenchmarkDialedPayment runs it over two in-test shards, counting the
// client's allocations and the shards' together.  A frame's header is
// built in the connection's scratch buffer ahead of its payload and read
// into its read buffer, so no frame allocates one (36 / 96 / 67 while the
// header escaped to the heap, 41 for the cross shape once its commit
// returned at the decision; the decision outbox keeps it at 35, adding
// nothing per decision).
var dialedPaymentAllocCeilings = []struct {
	name           string
	credits, shard int
	ceiling        float64
}{{"payment(1)", 1, 0, 24}, {"payment(7)", 7, 0, 60}, {"cross payment(1)", 1, 1, 37}}

func TestAllocCeilingDialedPayment(t *testing.T) {
	for _, shape := range dialedPaymentAllocCeilings {
		t.Run(shape.name, func(t *testing.T) {
			c, accts := dialAccounts(t, 2, shape.credits+1, time.Second, 5*time.Second, nil)
			from, to := accts[0][0], accts[shape.shard][1:]
			if err := c.Atomically(func(tx *DTx) error { return from.Credit(tx, 1<<40) }); err != nil {
				t.Fatal(err)
			}
			pay := func() {
				if err := c.Atomically(func(tx *DTx) error {
					if ok, err := from.Debit(tx, int64(shape.credits)); err != nil || !ok {
						return fmt.Errorf("debit: ok=%v err=%v", ok, err)
					}
					for _, a := range to {
						if err := a.Credit(tx, 1); err != nil {
							return err
						}
					}
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 16; i++ { // warm the pools and the connections' buffers
				pay()
			}
			if allocs := testing.AllocsPerRun(200, pay); allocs > shape.ceiling {
				t.Errorf("a dialed %s allocates %.1f/op, ceiling %.0f", shape.name, allocs, shape.ceiling)
			}
		})
	}
}
