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

	// Workers run past their rounds until a switch has installed, so a
	// loaded host cannot end the workload before the switcher's first one.
	deadline := time.Now().Add(10 * time.Second)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds || sys.Stats().SchemeSwitches == 0 && time.Now().Before(deadline); r++ {
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
// (their descriptors have closed forms for each), so any of them is
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

// TestOpenReopensAtRegisteredScheme pins what a restart does to a switched
// scheme in an in-process deployment: the log records committed operations,
// not the scheme that admitted them, so a reopened object runs the scheme
// its setup registers it under.  A dialed shard server differs: it restores
// its last switch from its catalog (TestCatalogSchemeSwitchDurable).
func TestOpenReopensAtRegisteredScheme(t *testing.T) {
	t.Run("Open", func(t *testing.T) {
		dir := t.TempDir()
		open := func() (*System, *Account) {
			var acc *Account
			s, err := Open(dir, func(s *System) error {
				var err error
				acc, err = s.NewAccount("acc", WithScheme(Hybrid))
				return err
			}, WithRecorder(NewRecorder()))
			if err != nil {
				t.Fatal(err)
			}
			return s, acc
		}
		s, acc := open()
		if err := acc.obj.SetScheme(Commutativity); err != nil {
			t.Fatal(err)
		}
		if err := s.Atomically(func(tx *Tx) error { return acc.Credit(tx, 7) }); err != nil {
			t.Fatal(err)
		}
		if got := acc.obj.Scheme(); got != Commutativity {
			t.Fatalf("Scheme before Close = %q, want %q", got, Commutativity)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}

		s2, acc2 := open()
		defer s2.Close()
		if got := acc2.obj.Scheme(); got != Hybrid {
			t.Errorf("Scheme after reopen = %q, want the registered %q", got, Hybrid)
		}
		if got := acc2.CommittedBalance(); got != 7 {
			t.Errorf("balance after reopen = %d, want 7", got)
		}
		if err := s2.Verify(); err != nil {
			t.Errorf("Verify after reopen: %v", err)
		}
	})

	t.Run("OpenCluster", func(t *testing.T) {
		dir := t.TempDir()
		open := func() (*Cluster, *Account) {
			var acc *Account
			c, err := OpenCluster(dir, 2, func(c *Cluster) error {
				var err error
				acc, err = c.NewAccount("acc", WithScheme(Hybrid))
				return err
			}, WithRecorder(NewRecorder()))
			if err != nil {
				t.Fatal(err)
			}
			return c, acc
		}
		c, acc := open()
		if err := c.SetScheme("acc", Commutativity); err != nil {
			t.Fatal(err)
		}
		if err := c.Atomically(func(tx *DTx) error { return acc.Credit(tx, 7) }); err != nil {
			t.Fatal(err)
		}
		if got := acc.obj.Scheme(); got != Commutativity {
			t.Fatalf("Scheme before Close = %q, want %q", got, Commutativity)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}

		c2, acc2 := open()
		defer c2.Close()
		if got := acc2.obj.Scheme(); got != Hybrid {
			t.Errorf("Scheme after reopen = %q, want the registered %q", got, Hybrid)
		}
		if got := acc2.CommittedBalance(); got != 7 {
			t.Errorf("balance after reopen = %d, want 7", got)
		}
		if err := c2.Verify(); err != nil {
			t.Errorf("Verify after reopen: %v", err)
		}
	})
}
