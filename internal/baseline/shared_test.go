package baseline_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"hybridcc/internal/adt"
	"hybridcc/internal/baseline"
	"hybridcc/internal/ccpolicy"
	"hybridcc/internal/core"
	"hybridcc/internal/spec"
)

// TestDescriptorFirstUseConcurrent makes the first registrations of every
// built-in type from many goroutines at once — no other test in this
// package asks for a Descriptor, so with -count=1 these are the first uses
// of each type's memo — while objects already registered grant operations
// and flip schemes.  Workers start at different types, so one type's set is
// being built while another type's objects run traffic on theirs.  Under
// -race it pins that the memo publishes one fully built set per type and
// that objects sharing it write nothing to it.
func TestDescriptorFirstUseConcurrent(t *testing.T) {
	total := map[string]spec.Invocation{
		"File": adt.FileWriteInv(1), "Queue": adt.EnqInv(1), "Semiqueue": adt.InsInv(1),
		"Account": adt.CreditInv(1), "Counter": adt.IncInv(1), "Set": adt.SetInsertInv(1),
		"Directory": adt.DirBindInv("a", 1),
	}
	types := make([]string, 0, len(total))
	for _, sp := range adt.All() {
		types = append(types, sp.Name())
	}
	const workers = 8
	sys := core.NewSystem(core.Options{LockWait: 5 * time.Second})
	got := make([]map[string]*ccpolicy.Set, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := range workers {
		got[w] = make(map[string]*ccpolicy.Set)
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := range types {
				typeName := types[(w+i)%len(types)]
				d, ok := baseline.DescriptorFor(typeName)
				if !ok {
					t.Errorf("no Descriptor for %s", typeName)
					return
				}
				got[w][typeName] = d.Policies
				o, err := sys.NewObjectPolicies(fmt.Sprintf("%s-%d", typeName, w), d.Spec, d.Policies, baseline.Schemes[w%len(baseline.Schemes)])
				if err != nil {
					t.Error(err)
					return
				}
				for _, scheme := range baseline.Schemes {
					if err := o.SetScheme(scheme); err != nil {
						t.Error(err)
						return
					}
					tx := sys.Begin()
					if _, err := o.Call(tx, total[typeName]); err != nil {
						t.Errorf("%s under %s: %v", o.Name(), scheme, err)
						_ = tx.Abort()
						return
					}
					if err := tx.Commit(); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	for _, typeName := range types {
		want := got[0][typeName]
		if want == nil || want.Len() != len(baseline.Schemes) {
			t.Fatalf("%s: policy set %v, want all of %v", typeName, want, baseline.Schemes)
		}
		for w := 1; w < workers; w++ {
			if got[w][typeName] != want {
				t.Errorf("%s: worker %d got its own policy set", typeName, w)
			}
		}
	}
}
