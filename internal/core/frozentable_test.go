package core

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"hybridcc/internal/adt"
	"hybridcc/internal/baseline"
	"hybridcc/internal/ccpolicy"
	"hybridcc/internal/depend"
	"hybridcc/internal/spec"
)

// accountSet builds the three-scheme Account policy set registration
// builds, over the Account universe (amounts {1, 2, 3}).
func accountSet() *ccpolicy.Set {
	set := ccpolicy.NewSet()
	for _, scheme := range baseline.Schemes {
		set.Add(scheme, baseline.ConflictFor(scheme, "Account"), baseline.UniverseFor("Account"))
	}
	return set
}

// tablePicture is everything a CompiledTable answers: its length, every
// row, and the block mask of every invocation a test touches.
type tablePicture struct {
	n      int
	rows   [][]uint64
	masks  []depend.Mask
	covers []bool
}

func pictureOf(tbl *depend.CompiledTable, invs []spec.Invocation) tablePicture {
	p := tablePicture{n: tbl.Len()}
	for c := 0; c < tbl.Len(); c++ {
		p.rows = append(p.rows, slices.Clone(tbl.Row(c)))
	}
	for _, inv := range invs {
		m, covered := tbl.BlockMask(inv)
		p.masks = append(p.masks, slices.Clone(m))
		p.covers = append(p.covers, covered)
	}
	return p
}

// TestCompiledTableUnchangedByTraffic runs mem-hot's transaction shape —
// Debit(7) then seven Credit(1), the debit outside the Account universe —
// on one object while a second Debit(7) blocks behind it, and pins that
// none of the object's tables changed: operations outside the universe
// take the dynamic-dispatch path and leave the table as Compile built it.
func TestCompiledTableUnchangedByTraffic(t *testing.T) {
	set := accountSet()
	invs := append(adt.AccountInvocations([]int64{1, 2, 3, 7}, []int64{2}), adt.CreditInv(100))
	before := make(map[string]tablePicture)
	for _, scheme := range set.Schemes() {
		before[scheme] = pictureOf(set.Get(scheme).Table, invs)
	}

	sys := NewSystem(Options{LockWait: 5 * time.Second})
	obj, err := sys.NewObjectPolicies("acct", adt.NewAccount(), set, "hybrid")
	if err != nil {
		t.Fatal(err)
	}
	fund := sys.Begin()
	if _, err := obj.Call(fund, adt.CreditInv(100)); err != nil {
		t.Fatal(err)
	}
	if err := fund.Commit(); err != nil {
		t.Fatal(err)
	}

	payer := sys.Begin()
	if res, err := obj.Call(payer, adt.DebitInv(7)); err != nil || res != adt.ResOk {
		t.Fatalf("Debit(7) = %q, %v", res, err)
	}
	for i := 0; i < 7; i++ {
		if _, err := obj.Call(payer, adt.CreditInv(1)); err != nil {
			t.Fatal(err)
		}
	}
	blocked := sys.Begin()
	done := make(chan error, 1)
	go func() {
		_, err := obj.Call(blocked, adt.DebitInv(7)) // two successful debits conflict
		done <- err
	}()
	for i := 0; waiters(obj) != 1; i++ {
		if i > 1000 {
			t.Fatal("the second Debit(7) never blocked")
		}
		time.Sleep(time.Millisecond)
	}
	if err := payer.Commit(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("blocked Debit(7) after the payer committed: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocked Debit(7) not woken by the payer's commit")
	}
	if err := blocked.Commit(); err != nil {
		t.Fatal(err)
	}
	// Exercise every table the set holds, not only the active one.
	for _, scheme := range set.Schemes() {
		if err := obj.SetScheme(scheme); err != nil {
			t.Fatal(err)
		}
		tx := sys.Begin()
		if _, err := obj.Call(tx, adt.DebitInv(7)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	for _, scheme := range set.Schemes() {
		if after := pictureOf(set.Get(scheme).Table, invs); !reflect.DeepEqual(after, before[scheme]) {
			t.Errorf("%s: table changed under traffic: %d classes before, %d after", scheme, before[scheme].n, after.n)
		}
	}
}

// TestSharedPolicySetConcurrentGrants registers two objects from one
// ccpolicy.Set — so both run on the same CompiledTables — and grants
// operations outside the universe on both at once.  Under -race it pins
// that a grant writes nothing to a table, the property that lets objects
// of one type share their tables.
func TestSharedPolicySetConcurrentGrants(t *testing.T) {
	set := accountSet()
	tbl := set.Get("hybrid").Table
	n := tbl.Len()
	sys := NewSystem(Options{LockWait: 5 * time.Second})
	objs := make([]*Object, 2)
	for i := range objs {
		o, err := sys.NewObjectPolicies(fmt.Sprintf("acct-%d", i), adt.NewAccount(), set, "hybrid")
		if err != nil {
			t.Fatal(err)
		}
		objs[i] = o
	}
	var wg sync.WaitGroup
	for _, o := range objs {
		wg.Add(1)
		go func(o *Object) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tx := sys.Begin()
				for _, inv := range []spec.Invocation{adt.CreditInv(100), adt.DebitInv(7), adt.DebitInv(1000), adt.CreditInv(1)} {
					if _, err := o.Call(tx, inv); err != nil {
						t.Error(err)
						_ = tx.Abort()
						return
					}
				}
				if err := tx.Commit(); err != nil {
					t.Error(err)
					return
				}
			}
		}(o)
	}
	wg.Wait()
	if tbl.Len() != n {
		t.Errorf("shared table grew from %d to %d classes", n, tbl.Len())
	}
	if _, ok := tbl.ClassOf(adt.Debit(7)); ok {
		t.Error("Debit(7) has a class after traffic; the table must stay its declared universe")
	}
}
