//go:build !race

package hybridcc

import "testing"

// The race detector changes allocation counts (and sync.Pool drops structs
// at random under it), so this file is built without it, as the ceilings of
// internal/core/alloc_test.go skip under it.

// snapshotTypedAllocCeiling bounds one facade Snapshot of four Counter.ReadAt
// without a recorder: the pooled handle, the registry slot and the typed
// getter — which takes the count off the snapshot state, formatting no
// response string — allocate nothing (steady state 0; 4 while ReadAt went
// through the string, one per read).
const snapshotTypedAllocCeiling = 0

func TestAllocCeilingSnapshotTyped(t *testing.T) {
	sys, read := counterSnapshot4(t)
	cycle := func() {
		if err := sys.Snapshot(read); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ { // warm the pool and the registry
		cycle()
	}
	if allocs := testing.AllocsPerRun(500, cycle); allocs > snapshotTypedAllocCeiling {
		t.Errorf("typed snapshot of four reads allocates %.1f/op, ceiling %d", allocs, snapshotTypedAllocCeiling)
	}
}
