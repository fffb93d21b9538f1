package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"hybridcc/internal/adt"
	"hybridcc/internal/baseline"
	"hybridcc/internal/ccpolicy"
	"hybridcc/internal/histories"
	"hybridcc/internal/lockmachine"
	"hybridcc/internal/spec"
)

// lockTableInvocations are each built-in type's invocations over values
// inside its declared universe (baseline.UniverseFor) and past it, so a
// lock record holds both classed operations and extras.
var lockTableInvocations = map[string][]spec.Invocation{
	"File":      adt.FileInvocations([]int64{1, 2, 7}),
	"Queue":     adt.QueueInvocations([]int64{1, 2, 7}),
	"Semiqueue": adt.SemiqueueInvocations([]int64{1, 2, 7}),
	"Account":   adt.AccountInvocations([]int64{1, 2, 5}, []int64{2, 3}),
	"Counter":   adt.CounterInvocations([]int64{1, 2, 7}),
	"Set":       adt.SetInvocations([]int64{1, 2, 7}),
	"Directory": adt.DirectoryInvocations([]string{"a", "z"}, []int64{1, 7}),
}

// TestLockTableMatchesMachine drives a lockTable alone — no System, no
// Object, no waits — beside the formal LOCK machine through random
// schedules of invocations, grants, commits and aborts, for every built-in
// type under each scheme's compiled policy.  The machine decides what is
// grantable: legal in the caller's view and conflict-free against the
// other active transactions.  The table answers the conflict half, so of
// the responses legal in the view it must deny exactly those the machine
// refuses; its holder queries must name exactly the other transactions
// whose intentions conflict (blockersLocked) or that hold anything
// (activeHoldersLocked); and it must hold a record for exactly the
// transactions the machine has intentions for.
func TestLockTableMatchesMachine(t *testing.T) {
	for typeName, invs := range lockTableInvocations {
		desc, ok := baseline.DescriptorFor(typeName)
		if !ok {
			t.Fatalf("no descriptor for %s", typeName)
		}
		for _, scheme := range baseline.Schemes {
			p := desc.Policies.Get(scheme)
			t.Run(typeName+"/"+scheme, func(t *testing.T) {
				for seed := int64(0); seed < 40; seed++ {
					lockTableSchedule(t, desc.Spec, p, invs, seed)
				}
			})
		}
	}
}

func lockTableSchedule(t *testing.T, sp spec.Spec, p *ccpolicy.Policy, invs []spec.Invocation, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	lt := lockTable{conflict: p.Conflict, table: p.Table}
	m := lockmachine.New("X", sp, p.Conflict)
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d: "+format, append([]any{seed}, args...)...)
	}

	const n = 3
	txs := make([]*Tx, n)
	ids := make([]histories.TxID, n)
	began := 0
	begin := func(i int) {
		began++
		txs[i], ids[i] = &Tx{}, histories.TxID(fmt.Sprintf("T%d", began))
	}
	for i := range txs {
		begin(i)
	}
	// others returns the transactions other than i that hold intentions —
	// only those whose intentions conflict with one of ops, when conflicting is set.
	others := func(i int, conflicting bool, ops []spec.Op) []*Tx {
		var out []*Tx
		for j := range txs {
			held := m.Intentions(ids[j])
			if j == i || len(held) == 0 {
				continue
			}
			if !conflicting || slices.ContainsFunc(ops, func(op spec.Op) bool { return conflictsAny(p.Conflict, held, op) }) {
				out = append(out, txs[j])
			}
		}
		return out
	}
	sameTxs := func(a, b []*Tx) bool {
		return len(a) == len(b) && !slices.ContainsFunc(a, func(x *Tx) bool { return !slices.Contains(b, x) })
	}

	for step := 0; step < 40; step++ {
		i := rng.Intn(n)
		tx, id := txs[i], ids[i]
		switch k := rng.Intn(6); {
		case k == 0: // commit above every bound: the machine's clock only rises
			lt.release(tx)
			if err := m.Commit(id, max(m.Clock(), 0)+1); err != nil {
				fail("machine commit: %v", err)
			}
			begin(i)
		case k == 1:
			lt.release(tx)
			if err := m.Abort(id); err != nil {
				fail("machine abort: %v", err)
			}
			begin(i)
		default:
			inv := invs[rng.Intn(len(invs))]
			if err := m.Invoke(id, inv); err != nil {
				fail("machine invoke: %v", err)
			}
			view, ok := spec.Replay(sp, m.View(id))
			if !ok {
				fail("machine view of %s illegal", id)
			}
			responses := sp.Responses(view, inv)
			grantable, err := m.GrantableResponses(id)
			if err != nil {
				fail("machine: %v", err)
			}
			var ops []spec.Op
			for _, r := range responses {
				op := inv.With(r)
				ops = append(ops, op)
				_, row := lt.rowOfLocked(tx, op)
				if denied := lt.conflictsWithActiveRowLocked(tx, row, op); denied == slices.Contains(grantable, r) {
					fail("%s by %s: table denies = %v, machine grants %v", op, id, denied, grantable)
				}
			}
			if got, want := lt.blockersLocked(tx, inv, responses), others(i, true, ops); !sameTxs(got, want) {
				fail("%s by %s: blockers %d, want %d", inv, id, len(got), len(want))
			}
			if got, want := lt.activeHoldersLocked(tx), others(i, false, nil); !sameTxs(got, want) {
				fail("%s by %s: holders %d, want %d", inv, id, len(got), len(want))
			}
			if len(grantable) == 0 {
				// Withdraw in both (the machine has no un-invoke).
				lt.release(tx)
				if err := m.Abort(id); err != nil {
					fail("machine abort: %v", err)
				}
				begin(i)
				break
			}
			r := grantable[rng.Intn(len(grantable))]
			op := inv.With(r)
			cls, _ := lt.rowOfLocked(tx, op)
			lk := lt.lockOf(tx)
			if lk == nil {
				lk = &txLock{}
			}
			lt.grant(tx, lk, op, cls, 0)
			if ok, err := m.RespondWith(id, r); !ok || err != nil {
				fail("machine refused %s by %s: %v", op, id, err)
			}
		}
		held := 0
		for j := range txs {
			if len(m.Intentions(ids[j])) > 0 {
				held++
			}
		}
		if lt.holders() != held {
			fail("table holds %d records, machine has intentions for %d transactions", lt.holders(), held)
		}
	}
}

// TestLockTableHolderSetUnderChurn drives a lockTable alone through seeded
// random runs of grants and releases by up to 32 transactions, and after
// every step checks each holder query against a map from transaction to
// lock record: lockOf, holders, minBound, conflictsWithActiveRowLocked and
// activeHoldersLocked (as a set).  Releases land anywhere in the active
// set, so a removal that loses, duplicates or keeps a record shows up at
// the next step.
func TestLockTableHolderSetUnderChurn(t *testing.T) {
	desc, _ := baseline.DescriptorFor("Account")
	sp, p := desc.Spec, desc.Policies.Get("hybrid")
	// Every response of each invocation in an empty and a funded account:
	// successful and refused debits, credits — some pairs conflict.
	funded, _ := spec.StepFrom(sp, sp.Init(), adt.CreditInv(5).With(adt.ResOk))
	var ops []spec.Op
	for _, inv := range lockTableInvocations["Account"] {
		for _, st := range []spec.State{sp.Init(), funded} {
			for _, r := range sp.Responses(st, inv) {
				if op := inv.With(r); !slices.Contains(ops, op) {
					ops = append(ops, op)
				}
			}
		}
	}
	const n = 32
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		lt := lockTable{conflict: p.Conflict, table: p.Table}
		ref := make(map[*Tx]*txLock)
		txs := make([]*Tx, n)
		for i := range txs {
			txs[i] = &Tx{}
		}
		// From mostly granting to mostly releasing: the holder count sweeps
		// from nearly all 32 down to a few.
		for step := 0; step < 400; step++ {
			tx := txs[rng.Intn(n)]
			if rng.Intn(8) <= int(seed) {
				if got := lt.release(tx); got != ref[tx] {
					t.Fatalf("seed %d step %d: release returned %p, want %p", seed, step, got, ref[tx])
				}
				delete(ref, tx)
			} else {
				op := ops[rng.Intn(len(ops))]
				lk := ref[tx]
				if lk == nil {
					lk = &txLock{}
					ref[tx] = lk
				}
				cls, _ := lt.rowOfLocked(tx, op)
				lt.grant(tx, lk, op, cls, histories.Timestamp(rng.Intn(1000)))
			}
			checkHolderSet(t, fmt.Sprintf("seed %d step %d", seed, step), &lt, ref, txs, ops)
		}
	}
}

// checkHolderSet compares lt's holder queries with the reference ref.
func checkHolderSet(t *testing.T, at string, lt *lockTable, ref map[*Tx]*txLock, txs []*Tx, ops []spec.Op) {
	t.Helper()
	if lt.holders() != len(ref) {
		t.Fatalf("%s: %d holders, want %d", at, lt.holders(), len(ref))
	}
	horizon := histories.Timestamp(1<<62 - 1)
	for _, lk := range ref {
		horizon = min(horizon, lk.bound)
	}
	if got := lt.minBound(); got != horizon {
		t.Fatalf("%s: minBound %d, want %d", at, got, horizon)
	}
	for i, tx := range txs {
		if got := lt.lockOf(tx); got != ref[tx] {
			t.Fatalf("%s: lockOf(T%d) = %p, want %p", at, i, got, ref[tx])
		}
		got := lt.activeHoldersLocked(tx)
		gotSet := make(map[*Tx]bool, len(got))
		for _, h := range got {
			gotSet[h] = true
		}
		want := len(ref)
		if ref[tx] != nil {
			want--
		}
		if len(got) != want || len(gotSet) != want || gotSet[tx] {
			t.Fatalf("%s: T%d sees %d holders (%d distinct), want %d others", at, i, len(got), len(gotSet), want)
		}
		for other := range ref {
			if other != tx && !gotSet[other] {
				t.Fatalf("%s: T%d's holders miss one", at, i)
			}
		}
		for _, op := range ops {
			conflicting := false
			for other, lk := range ref {
				conflicting = conflicting || other != tx && conflictsAny(lt.conflict, lk.ops, op)
			}
			if _, row := lt.rowOfLocked(tx, op); lt.conflictsWithActiveRowLocked(tx, row, op) != conflicting {
				t.Fatalf("%s: %s by T%d conflicts = %v, want %v", at, op, i, !conflicting, conflicting)
			}
		}
	}
}
