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

// TestAdaptiveTickRelaxAndRevert drives the controller's sampling loop by
// hand — fabricated counter deltas, no goroutine, no timing — and checks
// the hysteresis state machine: sustained pressure relaxes one ladder
// step, a cooldown follows, and sustained calm steps back toward the
// registered scheme.
func TestAdaptiveTickRelaxAndRevert(t *testing.T) {
	sys := NewSystem(Options{})
	defer sys.Close()
	o := newPolicyAccount(t, sys, "acct", "readwrite")
	c := newAdaptController(sys, Adaptive{
		MinCalls:    10,
		HighWater:   0.5,
		SwitchAfter: 2,
		RevertAfter: 2,
		Cooldown:    1,
	})

	c.tick() // first sight: baseline only
	pressure := func() {
		o.stats.waits.Add(30)
		o.stats.granted.Add(30)
	}
	pressure()
	c.tick() // hot window 1
	if got := o.Scheme(); got != "readwrite" {
		t.Fatalf("switched after one hot window: %q", got)
	}
	pressure()
	c.tick() // hot window 2 → relax
	if got := o.Scheme(); got != "commutativity" {
		t.Fatalf("after SwitchAfter hot windows Scheme = %q, want commutativity", got)
	}
	if n := sys.Stats().SchemeSwitches; n != 1 {
		t.Fatalf("SchemeSwitches = %d, want 1", n)
	}

	pressure()
	c.tick() // cooldown window: pressure ignored
	if got := o.Scheme(); got != "commutativity" {
		t.Fatalf("switched during cooldown: %q", got)
	}

	c.tick() // calm window 1
	c.tick() // calm window 2 → revert toward initial
	if got := o.Scheme(); got != "readwrite" {
		t.Fatalf("after RevertAfter calm windows Scheme = %q, want readwrite", got)
	}
}

// TestAdaptiveHotCommitsEnablesGroupCommit: a window with enough commits
// on one object turns the system's commit batcher on, once.
func TestAdaptiveHotCommitsEnablesGroupCommit(t *testing.T) {
	sys := NewSystem(Options{})
	defer sys.Close()
	o := newPolicyAccount(t, sys, "acct", "readwrite")
	c := newAdaptController(sys, Adaptive{HotCommits: 5})

	c.tick() // baseline
	if sys.batcher.Load() != nil {
		t.Fatal("batcher on before any commits")
	}
	o.stats.commits.Add(10)
	c.tick()
	if sys.batcher.Load() == nil {
		t.Fatal("batcher not enabled by hot-commit window")
	}
	if n := sys.Stats().AutoGroupCommits; n != 1 {
		t.Errorf("AutoGroupCommits = %d, want 1", n)
	}
	// Another hot window must not re-enable or re-count.
	o.stats.commits.Add(10)
	c.tick()
	if n := sys.Stats().AutoGroupCommits; n != 1 {
		t.Errorf("AutoGroupCommits after second window = %d, want 1", n)
	}
}

func TestEnableGroupCommitOnce(t *testing.T) {
	sys := NewSystem(Options{})
	defer sys.Close()
	o := newPolicyAccount(t, sys, "acct", "hybrid")
	if !sys.EnableGroupCommit() {
		t.Fatal("first EnableGroupCommit = false")
	}
	if sys.EnableGroupCommit() {
		t.Fatal("second EnableGroupCommit = true")
	}
	// Commits keep working through the batcher path.
	tx := sys.Begin()
	if _, err := o.Call(tx, adt.CreditInv(1)); err != nil {
		t.Fatalf("call: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit through batcher: %v", err)
	}
}

// TestAdaptivePressureIgnoresReaders: the pressure formula weighs lock
// waits against lock grants.  Snapshot reads take no lock, so a crowd of
// readers at a contended object must not dilute its writers' pressure: the
// controller relaxes after the same two hot windows as without them.  (When
// every read bumped granted, 400 reads a window turned 30 waits in 60 lock
// requests into a pressure of 0.07, and the object never switched.)
func TestAdaptivePressureIgnoresReaders(t *testing.T) {
	sys := NewSystem(Options{})
	defer sys.Close()
	o := newPolicyAccount(t, sys, "acct", "readwrite")
	c := newAdaptController(sys, Adaptive{MinCalls: 10, HighWater: 0.5, SwitchAfter: 2, Cooldown: 1})
	c.tick() // first sight: baseline only
	for window := 1; window <= 2; window++ {
		o.stats.waits.Add(30)
		o.stats.granted.Add(30)
		r := sys.BeginReadOnly()
		for i := 0; i < 400; i++ { // a refused debit observes the balance and changes nothing
			if res, err := o.ReadCall(r, adt.DebitInv(1<<40)); err != nil || res != adt.ResOverdraft {
				t.Fatalf("read = %q, %v", res, err)
			}
		}
		if err := r.Commit(); err != nil {
			t.Fatal(err)
		}
		c.tick()
	}
	if got := o.Scheme(); got != "commutativity" {
		t.Fatalf("Scheme = %q after two hot windows with readers present, want commutativity", got)
	}
}
