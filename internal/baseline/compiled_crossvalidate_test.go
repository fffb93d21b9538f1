package baseline

import (
	"testing"

	"hybridcc/internal/adt"
	"hybridcc/internal/depend"
	"hybridcc/internal/spec"
)

// TestCompiledTablesMatchInterfacePath cross-validates the compiled bitmask
// conflict path against the depend.Conflict interface path on every ordered
// pair of every built-in universe, under all three schemes (7 types × 3
// schemes).  Each type also brings operations over values outside the
// universe it registers with — the traffic a table has no class for — held
// against and requested after every universe operation, so the fallback
// to the interface path is checked on the same pairs.  The runtime's
// correctness argument leans on the two paths being indistinguishable;
// this is the exhaustive ground-level check, and the runtime-level
// counterpart lives in internal/core's cross-validation against the formal
// LOCK machine.
func TestCompiledTablesMatchInterfacePath(t *testing.T) {
	outside := map[string][]spec.Op{
		"File":      adt.FileUniverse([]int64{7}),
		"Queue":     adt.QueueUniverse([]int64{7}),
		"Semiqueue": adt.SemiqueueUniverse([]int64{7}),
		"Account":   adt.AccountUniverse([]int64{7, 100}, []int64{5}),
		"Counter":   adt.CounterUniverse([]int64{9}, []int64{9}),
		"Set":       adt.SetUniverse([]int64{7}),
		"Directory": adt.DirectoryUniverse([]string{"z"}, []int64{7}),
	}
	for typeName, extra := range outside {
		universe := UniverseFor(typeName)
		ops := append(append([]spec.Op(nil), universe...), extra...)
		for _, scheme := range Schemes {
			c := ConflictFor(scheme, typeName)
			if c == nil {
				t.Fatalf("no conflict relation for %s/%s", scheme, typeName)
			}
			variants := map[string]*depend.CompiledTable{
				// The whole universe compiled, as registration does.
				"seeded": depend.Compile(c, universe, 0),
				// Truncated: the table holds three classes, so most pairs
				// exercise the fallback to the interface path.
				"truncated": depend.Compile(c, universe, 3),
			}
			for variant, tbl := range variants {
				for _, a := range ops {
					for _, b := range ops {
						if got, want := tbl.Conflicts(a, b), c.Conflicts(a, b); got != want {
							t.Errorf("%s/%s (%s): compiled Conflicts(%s, %s) = %v, interface path says %v",
								typeName, scheme, variant, a, b, got, want)
						}
					}
				}
			}
		}
	}
}
