package core

import (
	"testing"
	"time"

	"hybridcc/internal/adt"
	"hybridcc/internal/baseline"
	"hybridcc/internal/ccpolicy"
)

// newPolicyAccount registers an Account carrying the full three-scheme
// policy set, starting at initial.
func newPolicyAccount(t *testing.T, sys *System, name, initial string) *Object {
	t.Helper()
	set := ccpolicy.NewSet()
	for _, s := range baseline.Schemes {
		set.Add(s, baseline.ConflictFor(s, "Account"), baseline.UniverseFor("Account"))
	}
	o, err := sys.NewObjectPolicies(name, baseline.SpecFor("Account"), set, initial)
	if err != nil {
		t.Fatalf("NewObjectPolicies: %v", err)
	}
	return o
}

func TestSetSchemeValidates(t *testing.T) {
	sys := NewSystem(Options{})
	defer sys.Close()
	o := newPolicyAccount(t, sys, "acct", "readwrite")
	if err := o.SetScheme("nope"); err == nil {
		t.Error("SetScheme(nope) succeeded, want error")
	}
	if got := o.Scheme(); got != "readwrite" {
		t.Errorf("Scheme after failed switch = %q, want readwrite", got)
	}
}

// TestSetSchemeQuiescentInstall proves the drain discipline: a pending
// switch waits for the active set to empty, existing holders keep
// operating, first-time entrants are barred, and the install happens at
// the completion that empties the object.
func TestSetSchemeQuiescentInstall(t *testing.T) {
	sys := NewSystem(Options{LockWait: 25 * time.Millisecond})
	defer sys.Close()
	o := newPolicyAccount(t, sys, "acct", "readwrite")

	tx1 := sys.Begin()
	if _, err := o.Call(tx1, adt.CreditInv(1)); err != nil {
		t.Fatalf("holder call: %v", err)
	}
	if err := o.SetScheme("hybrid"); err != nil {
		t.Fatalf("SetScheme: %v", err)
	}
	st := o.Stats()
	if !st.PendingSwitch || st.Scheme != "readwrite" {
		t.Fatalf("mid-drain stats = scheme %q pending %v, want readwrite/true", st.Scheme, st.PendingSwitch)
	}

	// The holder keeps operating through the drain — blocking it would
	// deadlock the switch forever.
	if _, err := o.Call(tx1, adt.CreditInv(2)); err != nil {
		t.Fatalf("holder call during drain: %v", err)
	}

	// A first-time entrant is barred until the install: it times out
	// rather than granting against a table about to be replaced.
	tx2 := sys.Begin()
	if _, err := o.Call(tx2, adt.CreditInv(3)); err == nil {
		t.Fatal("newcomer granted during drain, want timeout")
	}
	_ = tx2.Abort()

	if err := tx1.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	st = o.Stats()
	if st.PendingSwitch || st.Scheme != "hybrid" || st.SchemeSwitches != 1 {
		t.Fatalf("post-drain stats = scheme %q pending %v switches %d, want hybrid/false/1",
			st.Scheme, st.PendingSwitch, st.SchemeSwitches)
	}

	// The object works under the new policy.
	tx3 := sys.Begin()
	if _, err := o.Call(tx3, adt.CreditInv(4)); err != nil {
		t.Fatalf("call after switch: %v", err)
	}
	if err := tx3.Commit(); err != nil {
		t.Fatalf("commit after switch: %v", err)
	}
}

// TestSetSchemeInstallOnAbort proves the abort path also installs a
// pending policy when it empties the active set.
func TestSetSchemeInstallOnAbort(t *testing.T) {
	sys := NewSystem(Options{LockWait: 25 * time.Millisecond})
	defer sys.Close()
	o := newPolicyAccount(t, sys, "acct", "readwrite")

	tx := sys.Begin()
	if _, err := o.Call(tx, adt.CreditInv(1)); err != nil {
		t.Fatalf("call: %v", err)
	}
	if err := o.SetScheme("commutativity"); err != nil {
		t.Fatalf("SetScheme: %v", err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatalf("abort: %v", err)
	}
	if got := o.Scheme(); got != "commutativity" {
		t.Errorf("Scheme after abort-install = %q, want commutativity", got)
	}
}

// TestSetSchemeCurrentCancelsPending: requesting the scheme already active
// cancels a pending switch instead of queueing a no-op swap.
func TestSetSchemeCurrentCancelsPending(t *testing.T) {
	sys := NewSystem(Options{LockWait: 25 * time.Millisecond})
	defer sys.Close()
	o := newPolicyAccount(t, sys, "acct", "readwrite")

	tx := sys.Begin()
	if _, err := o.Call(tx, adt.CreditInv(1)); err != nil {
		t.Fatalf("call: %v", err)
	}
	if err := o.SetScheme("hybrid"); err != nil {
		t.Fatalf("SetScheme: %v", err)
	}
	if err := o.SetScheme("readwrite"); err != nil {
		t.Fatalf("cancelling SetScheme: %v", err)
	}
	st := o.Stats()
	if st.PendingSwitch {
		t.Fatal("pending switch survived cancellation")
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	st = o.Stats()
	if st.Scheme != "readwrite" || st.SchemeSwitches != 0 {
		t.Errorf("stats after cancel = scheme %q switches %d, want readwrite/0", st.Scheme, st.SchemeSwitches)
	}
}
