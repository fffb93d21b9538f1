package core

import (
	"slices"
	"testing"

	"hybridcc/internal/adt"
	"hybridcc/internal/baseline"
	"hybridcc/internal/histories"
	"hybridcc/internal/spec"
)

// These tests pin the intentions arena's aliasing rules (Tx.intend): a
// transaction's lock records draw their intentions from one arena, the
// committed entries keep sharing its slots, so no later transaction — the
// next incarnation of the same pooled Tx, or a transaction drawing a
// recycled lock record — may ever write into it.  They also cover the
// per-commit tail-snapshot block.  Run them under -race as well.

func arenaAccounts(t *testing.T, sys *System, n int) []*Object {
	t.Helper()
	objs := make([]*Object, n)
	for i := range objs {
		objs[i] = sys.NewObjectSeeded(string(rune('a'+i)), baseline.SpecFor("Account"),
			baseline.ConflictFor("hybrid", "Account"), baseline.UniverseFor("Account"))
	}
	return objs
}

// creditMix grants tx a mix of credits over objs, amounts derived from
// base: interleaved rounds (a record outgrows its run after another record
// drew from the arena, and moves) and a burst at the first object (the
// newest run extends in place).  It returns what it credited to each.
func creditMix(t *testing.T, tx *Tx, objs []*Object, base int64) []int64 {
	t.Helper()
	sums := make([]int64, len(objs))
	credit := func(i int, n int64) {
		if _, err := objs[i].Call(tx, adt.CreditInv(n)); err != nil {
			t.Fatal(err)
		}
		sums[i] += n
	}
	for round := int64(0); round < 3; round++ {
		for i := range objs {
			credit(i, base+round*int64(len(objs))+int64(i))
		}
	}
	for k := int64(0); k < 4; k++ {
		credit(0, base+100+k)
	}
	return sums
}

func balances(objs []*Object) []int64 {
	out := make([]int64, len(objs))
	for i, o := range objs {
		out[i] = adt.AccountBalance(o.CommittedState())
	}
	return out
}

// Abort then retry on one pooled Tx, as Atomically's loop does: the
// committed states hold the retry's credits alone.
func TestArenaAbortThenRetry(t *testing.T) {
	sys := NewSystem(Options{})
	objs := arenaAccounts(t, sys, 4)
	want := make([]int64, len(objs))
	for attempt := int64(1); attempt <= 50; attempt++ {
		tx := sys.BeginPooledCtx(nil)
		creditMix(t, tx, objs, 1000*attempt)
		if err := tx.Abort(); err != nil {
			t.Fatal(err)
		}
		sys.Recycle(tx)

		tx = sys.BeginPooledCtx(nil)
		sums := creditMix(t, tx, objs, 1000*attempt+7)
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		sys.Recycle(tx)
		for i, n := range sums {
			want[i] += n
		}
		if got := balances(objs); !slices.Equal(got, want) {
			t.Fatalf("attempt %d: committed balances %v, want %v", attempt, got, want)
		}
	}
}

// Commit, Recycle and reuse while a pinned reader holds the horizon, so
// every committed entry stays unforgotten: the published snapshot replays
// each commit's intentions at its timestamp exactly as they were granted.
func TestArenaCommittedEntriesSurviveReuse(t *testing.T) {
	const rounds = 1000
	sys := NewSystem(Options{})
	objs := arenaAccounts(t, sys, 3)
	pin := sys.BeginReadOnly()
	defer pin.Abort()

	stamps := make([]histories.Timestamp, rounds)
	running := make([][]int64, rounds)
	total := make([]int64, len(objs))
	for r := range stamps {
		tx := sys.BeginPooledCtx(nil)
		sums := creditMix(t, tx, objs, int64(r)*1000+1)
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		stamps[r], _ = tx.Timestamp()
		sys.Recycle(tx)
		for i, n := range sums {
			total[i] += n
		}
		running[r] = append([]int64(nil), total...)
	}
	for i, o := range objs {
		if n := o.UnforgottenLen(); n != rounds {
			t.Fatalf("%s: %d unforgotten entries, want %d (the reader pin must hold the horizon)", o.name, n, rounds)
		}
		snap := o.tailSnap.Load()
		for r, ts := range stamps {
			if got := adt.AccountBalance(snap.stateAt(o.sp, ts)); got != running[r][i] {
				t.Fatalf("%s at commit %d (ts %d): snapshot replays %d, want %d", o.name, r, ts, got, running[r][i])
			}
		}
		if got := adt.AccountBalance(snap.stateAt(o.sp, pin.Timestamp())); got != 0 {
			t.Fatalf("%s at the pinned stamp: %d, want 0", o.name, got)
		}
	}
}

// A lock record drawn from the pool after an abort takes fresh arena
// slots: it never writes into the aborted transaction's arena.
func TestArenaRecycledLockRecordWritesOwnArena(t *testing.T) {
	sys := NewSystem(Options{})
	objs := arenaAccounts(t, sys, 4)
	for round := int64(0); round < 20; round++ {
		a := sys.BeginPooledCtx(nil)
		creditMix(t, a, objs, round*1000+1)
		var slots [][]spec.Op
		for _, o := range objs {
			o.mu.Lock()
			slots = append(slots, o.lockOf(a).ops)
			o.mu.Unlock()
		}
		if err := a.Abort(); err != nil {
			t.Fatal(err)
		}

		b := sys.BeginPooledCtx(nil)
		creditMix(t, b, objs, round*1000+501)
		for _, o := range objs {
			o.mu.Lock()
			ops := o.lockOf(b).ops
			o.mu.Unlock()
			for _, s := range slots {
				s = s[:cap(s)]
				for k := range s {
					for j := range ops {
						if &ops[j] == &s[k] {
							t.Fatalf("round %d: %s's intentions write into the aborted transaction's arena", round, o.name)
						}
					}
				}
			}
		}
		if err := b.Abort(); err != nil {
			t.Fatal(err)
		}
		sys.Recycle(a)
		sys.Recycle(b)
	}
}
