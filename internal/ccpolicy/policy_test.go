package ccpolicy_test

import (
	"testing"

	"hybridcc/internal/adt"
	"hybridcc/internal/baseline"
	"hybridcc/internal/ccpolicy"
)

// fullSet builds a private three-scheme policy set for a built-in type, the
// same policies as the type's shared set, for a test that may Add to it.
func fullSet(t *testing.T, typeName string) *ccpolicy.Set {
	t.Helper()
	set := ccpolicy.NewSet()
	for _, scheme := range baseline.Schemes {
		c := baseline.ConflictFor(scheme, typeName)
		if c == nil {
			t.Fatalf("no conflict relation for %s/%s", scheme, typeName)
		}
		set.Add(scheme, c, baseline.UniverseFor(typeName))
	}
	return set
}

// TestPolicyTablesMatchInterfacePath extends the compiled-table
// cross-validation matrix (internal/baseline) through the policy seam:
// for every built-in type and every scheme, the table carried by the
// policy its objects actually install — the type's shared set — must agree
// with its interface-path conflict relation on every ordered pair of the
// declared universe.
// A disagreement here would mean a runtime scheme switch installs a table
// that enforces a different relation than the one it advertises.
func TestPolicyTablesMatchInterfacePath(t *testing.T) {
	for _, sp := range adt.All() {
		typeName := sp.Name()
		d, _ := baseline.DescriptorFor(typeName)
		set := d.Policies
		if set.Len() != len(baseline.Schemes) {
			t.Fatalf("%s: shared set holds %v", typeName, set.Schemes())
		}
		universe := baseline.UniverseFor(typeName)
		for _, scheme := range set.Schemes() {
			p := set.Get(scheme)
			if p == nil || p.Table == nil || p.Conflict == nil {
				t.Fatalf("%s/%s: incomplete policy", typeName, scheme)
			}
			for _, a := range universe {
				for _, b := range universe {
					if got, want := p.Table.Conflicts(a, b), p.Conflict.Conflicts(a, b); got != want {
						t.Errorf("%s/%s: policy table Conflicts(%s, %s) = %v, interface path says %v",
							typeName, scheme, a, b, got, want)
					}
				}
			}
		}
	}
}

func TestSetNavigation(t *testing.T) {
	set := fullSet(t, "Account")
	if n := set.Len(); n != 3 {
		t.Fatalf("Len = %d, want 3", n)
	}

	// Re-adding a scheme replaces in place, preserving order and length.
	before := set.Schemes()
	set.Add("commutativity", baseline.ConflictFor("commutativity", "Account"), baseline.UniverseFor("Account"))
	if n := set.Len(); n != 3 {
		t.Errorf("Len after re-Add = %d, want 3", n)
	}
	after := set.Schemes()
	for i := range before {
		if before[i] != after[i] {
			t.Errorf("scheme order changed by re-Add: %v -> %v", before, after)
			break
		}
	}
}
