package hybridcc

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSetSchemeMidWorkloadStress flips a contended Account between all
// three schemes while workers hammer it, then proves the interleaved
// history — spanning every switch point — is still hybrid atomic and the
// balance is exact.  Run under -race this is the tentpole's soundness
// check: the quiescent-install discipline must never let two conflict
// tables disagree about one pair of in-flight operations.
func TestSetSchemeMidWorkloadStress(t *testing.T) {
	const workers, rounds = 4, 40

	rec := NewRecorder()
	sys := NewSystem(WithRecorder(rec), WithLockWait(50*time.Millisecond))
	acct := Must(sys.NewAccount("hot", WithScheme(ReadWrite)))

	var want atomic.Int64
	done := make(chan struct{})
	var switcher sync.WaitGroup
	switcher.Add(1)
	go func() {
		defer switcher.Done()
		schemes := []Scheme{Commutativity, Hybrid, ReadWrite}
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			// Alternate the facade's two switching surfaces.
			if i%2 == 0 {
				if err := acct.obj.SetScheme(schemes[i%len(schemes)]); err != nil {
					t.Errorf("Object.SetScheme: %v", err)
				}
			} else {
				if err := sys.SetScheme("hot", schemes[i%len(schemes)]); err != nil {
					t.Errorf("System.SetScheme: %v", err)
				}
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				amount := int64(w*rounds + r + 1)
				if err := sys.Atomically(func(tx *Tx) error {
					if err := acct.Credit(tx, amount); err != nil {
						return err
					}
					runtime.Gosched()
					return acct.Credit(tx, amount+1)
				}); err != nil {
					t.Errorf("worker %d round %d: %v", w, r, err)
					return
				}
				want.Add(2*amount + 1)
			}
		}(w)
	}
	wg.Wait()
	close(done)
	switcher.Wait()

	if got := acct.CommittedBalance(); got != want.Load() {
		t.Errorf("balance = %d, want %d", got, want.Load())
	}
	if err := sys.Verify(); err != nil {
		t.Errorf("history not hybrid atomic across switches: %v", err)
	}
	if n := sys.Stats().SchemeSwitches; n == 0 {
		t.Error("no scheme switch ever installed during the stress run")
	}
}

// TestWithAdaptiveSwitchesUnderContention opens a system with the
// adaptation controller on and a deliberately pessimistic initial scheme,
// then keeps the object contended until the controller steps it up the
// ladder, and proves the recorded history — traffic before, across and
// after the controller's own switch — hybrid atomic.
func TestWithAdaptiveSwitchesUnderContention(t *testing.T) {
	sys := NewSystem(
		WithRecorder(NewRecorder()),
		WithAdaptive(Adaptive{
			Interval:    time.Millisecond,
			MinCalls:    4,
			HighWater:   0.05,
			SwitchAfter: 1,
			RevertAfter: -1, // never step back: the test asserts the relax
		}),
		WithLockWait(5*time.Millisecond),
	)
	defer func() {
		if err := sys.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	acct := Must(sys.NewAccount("hot", WithScheme(ReadWrite)))

	done := make(chan struct{})
	var commits atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				if sys.Atomically(func(tx *Tx) error {
					if err := acct.Credit(tx, int64(w+1)); err != nil {
						return err
					}
					// Sleep while holding the lock so transactions overlap
					// even on GOMAXPROCS=1 — contention, not luck, drives
					// the controller — and so the recorded history stays
					// small enough for Verify, which is quadratic.
					time.Sleep(50 * time.Microsecond)
					return acct.Credit(tx, int64(i%3+1))
				}) == nil {
					commits.Add(1)
				}
			}
		}(w)
	}

	// Run until the switch is observed, then a little longer so the
	// history has commits on both sides of it.
	deadline := time.Now().Add(5 * time.Second)
	switched, after := false, int64(0)
	for time.Now().Before(deadline) {
		if !switched && acct.obj.Scheme() != ReadWrite {
			switched, after = true, commits.Load()+20
		}
		if switched && commits.Load() >= after {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(done)
	wg.Wait()
	if !switched {
		t.Fatalf("controller never relaxed the hot object off %q", ReadWrite)
	}
	if n := sys.Stats().SchemeSwitches; n == 0 {
		t.Error("SchemeSwitches counter is zero after an observed switch")
	}
	if err := sys.Verify(); err != nil {
		t.Fatalf("history across the controller's switch (%d commits): %v", commits.Load(), err)
	}
	t.Logf("verified %d commits across %d controller switches", commits.Load(), sys.Stats().SchemeSwitches)
}

// TestWithSchemeValidation covers the option-combination rules: unknown
// schemes and contradictory WithScheme pairs fail registration, repeating
// the same scheme is harmless.
func TestWithSchemeValidation(t *testing.T) {
	sys := NewSystem()
	if _, err := sys.NewAccount("a", WithScheme(Scheme("bogus"))); !errors.Is(err, ErrUnknownScheme) {
		t.Errorf("unknown scheme: got %v, want ErrUnknownScheme", err)
	}
	if _, err := sys.NewAccount("b", WithScheme(Hybrid), WithScheme(ReadWrite)); !errors.Is(err, ErrConflictingOptions) {
		t.Errorf("conflicting schemes: got %v, want ErrConflictingOptions", err)
	}
	if _, err := sys.NewAccount("c", WithScheme(Hybrid), WithScheme(Hybrid)); err != nil {
		t.Errorf("repeated identical scheme: %v", err)
	}
}

// TestBuiltinSchemesComplete: built-in objects carry all three schemes
// (their descriptors have closed forms for each), so any ladder scheme is
// switchable at runtime.
func TestBuiltinSchemesComplete(t *testing.T) {
	sys := NewSystem()
	acct := Must(sys.NewAccount("a"))
	schemes := acct.obj.Schemes()
	if len(schemes) != 3 {
		t.Fatalf("built-in policy set = %v, want 3 schemes", schemes)
	}
	for _, s := range []Scheme{ReadWrite, Commutativity, Hybrid} {
		if err := acct.obj.SetScheme(s); err != nil {
			t.Errorf("SetScheme(%s) on idle built-in: %v", s, err)
		}
		if got := acct.obj.Scheme(); got != s {
			t.Errorf("Scheme = %q after SetScheme(%s)", got, s)
		}
	}
	if err := sys.SetScheme("missing", Hybrid); err == nil {
		t.Error("System.SetScheme on unknown object succeeded")
	}
}

// TestClusterSetScheme exercises the cluster facade: switching by name on
// whichever shard owns the object, mid-workload, with the global history
// verifying afterwards.
func TestClusterSetScheme(t *testing.T) {
	rec := NewRecorder()
	cl, err := NewCluster(3, WithRecorder(rec), WithLockWait(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 4)
	accts := make([]*Account, 4)
	for i := range accts {
		names[i] = fmt.Sprintf("acct%d", i)
		accts[i] = Must(cl.NewAccount(names[i], WithScheme(Commutativity)))
	}

	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < 20; r++ {
				if err := cl.Atomically(func(tx *DTx) error {
					return accts[(w+r)%len(accts)].Credit(tx, 1)
				}); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if r%5 == 0 {
					s := []Scheme{Hybrid, ReadWrite, Commutativity}[r/5%3]
					if err := cl.SetScheme(names[(w+r)%len(names)], s); err != nil {
						t.Errorf("Cluster.SetScheme: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	if err := cl.Verify(); err != nil {
		t.Errorf("cluster history not hybrid atomic across switches: %v", err)
	}
	if n := cl.Stats().Total.SchemeSwitches; n == 0 {
		t.Error("no switch installed on any shard")
	}
}
