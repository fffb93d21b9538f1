package core

import (
	"runtime"
	"testing"

	"hybridcc/internal/adt"
	"hybridcc/internal/baseline"
)

// Allocation ceilings for the zero-allocation commit pipeline.  These are
// hard regression gates, not benchmarks: CI runs them on every push (the
// bench-smoke step), and a change that re-introduces per-transaction
// allocation churn fails loudly.  The ceilings leave one alloc of
// headroom over the measured steady state (see EXPERIMENTS.md for the
// recorded numbers); raise them only with a justification in the commit.
const (
	// grantAllocCeiling bounds one granted call inside an open pooled
	// transaction (steady state 0 as measured: the balances stay small
	// enough for Go's static boxes, and the intentions come from an arena
	// sized by the previous incarnation, one chunk per 64 grants).
	grantAllocCeiling = 1
	// commitAllocCeiling bounds one full pooled begin→credit→commit→
	// recycle cycle (steady state 2–3: the grant's boxed state once the
	// balance outgrows the static boxes, the intentions arena, the
	// snapshot block; 4 while the merge and the fold each replayed the
	// credit into a fresh box).
	commitAllocCeiling = 3
	// payment8AllocCeiling bounds one pooled payment — Debit + 7 Credit
	// over 8 Accounts, commit, recycle.  Steady state 10–11: one boxed
	// state per grant, one intentions arena for the transaction, one block
	// of eight tail snapshots for the commit, and the unforgotten arrays'
	// amortized growth (one array per eight commits of an object).  The
	// merge adopts the grant's state and the fold adopts the tail, so
	// neither boxes anything (25 with an intentions slice and a snapshot
	// per object, 48 when the merge and the fold replayed and every commit
	// started a fresh unforgotten array).
	payment8AllocCeiling = 11
	// payment8ByteCeiling bounds the same cycle's bytes, so that arena and
	// block sizing cannot trade allocations for bytes (steady state 1408:
	// 384 arena, 512 block, 448 unforgotten growth, 64 boxes; 1536 with a
	// slice and a snapshot per object).
	payment8ByteCeiling = 1536
	// snapshotAllocCeiling bounds one pooled begin→four ReadCalls→commit→
	// recycle cycle without a sink (steady state 4: ReadCall's caller asked
	// for the response string, so each read formats one; the registry, the
	// handle and the bookkeeping allocate nothing.  Before the reader
	// registry: ≈ 18).  The typed getters ask for no string and allocate
	// nothing: TestAllocCeilingSnapshotTyped, beside the facade.
	snapshotAllocCeiling = 5
)

func TestAllocCeilingGrantFastPath(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts shift under the race detector")
	}
	sys := NewSystem(Options{})
	obj := sys.NewObjectSeeded("hot", baseline.SpecFor("Account"),
		baseline.ConflictFor("hybrid", "Account"), baseline.UniverseFor("Account"))
	inv := adt.CreditInv(1)
	tx := sys.BeginPooledCtx(nil)
	n := 0
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := obj.Call(tx, inv); err != nil {
			t.Fatal(err)
		}
		n++
		if n%64 == 0 {
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			sys.Recycle(tx)
			tx = sys.BeginPooledCtx(nil)
		}
	})
	if allocs > grantAllocCeiling {
		t.Errorf("grant fast path allocates %.1f/op, ceiling %d", allocs, grantAllocCeiling)
	}
}

func TestAllocCeilingPooledCommitCycle(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts shift under the race detector")
	}
	sys := NewSystem(Options{})
	obj := sys.NewObjectSeeded("hot", baseline.SpecFor("Account"),
		baseline.ConflictFor("hybrid", "Account"), baseline.UniverseFor("Account"))
	inv := adt.CreditInv(1)
	// Warm the pools so the run measures steady state, not first-use
	// growth.
	for i := 0; i < 16; i++ {
		tx := sys.BeginPooledCtx(nil)
		if _, err := obj.Call(tx, inv); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		sys.Recycle(tx)
	}
	allocs := testing.AllocsPerRun(500, func() {
		tx := sys.BeginPooledCtx(nil)
		if _, err := obj.Call(tx, inv); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		sys.Recycle(tx)
	})
	if allocs > commitAllocCeiling {
		t.Errorf("pooled commit cycle allocates %.1f/op, ceiling %d", allocs, commitAllocCeiling)
	}
}

func TestAllocCeilingPayment8(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts shift under the race detector")
	}
	for _, v := range payment8Tables {
		t.Run(v.name, func(t *testing.T) {
			sys, accs := payment8System(t, v.shared)
			n := 0
			cycle := func() {
				if err := payment8(sys, accs, n%len(accs)); err != nil {
					t.Fatal(err)
				}
				n++
			}
			for i := 0; i < 16; i++ { // warm the pools
				cycle()
			}
			const runs = 500
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			allocs := testing.AllocsPerRun(runs, cycle) // runs+1 payments
			runtime.ReadMemStats(&after)
			bytes := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)
			if allocs > payment8AllocCeiling || bytes > payment8ByteCeiling {
				t.Errorf("payment over 8 accounts allocates %.1f objects and %.0f B per op; ceilings %d and %d B",
					allocs, bytes, payment8AllocCeiling, payment8ByteCeiling)
			}
		})
	}
}

func TestAllocCeilingSnapshot(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts shift under the race detector")
	}
	sys, ctr, inv := snapshotBenchSystem(t)
	cycle := func() {
		if err := snapshot4Reads(sys, ctr, inv); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ { // warm the pool and the registry
		cycle()
	}
	if allocs := testing.AllocsPerRun(500, cycle); allocs > snapshotAllocCeiling {
		t.Errorf("snapshot of four reads allocates %.1f/op, ceiling %d", allocs, snapshotAllocCeiling)
	}
}
