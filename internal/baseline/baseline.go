// Package baseline provides the conflict relations of the schemes the
// paper compares against (Section 7):
//
//   - Commutativity-based two-phase locking (Weihl's dynamic atomic
//     scheme): two operations conflict unless they forward-commute.  Hybrid
//     atomicity is upward compatible with dynamic atomicity, so these
//     conflicts run on the same runtime, giving an apples-to-apples
//     concurrency comparison.
//
//   - Classical read/write two-phase locking: the untyped baseline where
//     every operation is classified as a read or a write and two operations
//     conflict unless both are reads.
//
// The commutativity relations are hand-derived closed forms; the tests
// verify each against the mechanical FailureToCommute derivation, exactly
// as the paper-table predicates are verified in package depend.
package baseline

import (
	"sync"

	"hybridcc/internal/adt"
	"hybridcc/internal/ccpolicy"
	"hybridcc/internal/depend"
	"hybridcc/internal/spec"
)

// QueueCommutativity returns the forward-commutativity conflicts for FIFO
// Queue.  The paper observes these coincide with the conflicts induced by
// Table III: enqueues of distinct items conflict, dequeues of equal items
// conflict, and Enq/Deq never conflict.
func QueueCommutativity() depend.Conflict {
	return depend.SymmetricClosure(depend.QueueDependencyIII())
}

// AccountCommutativity returns Table VI (re-exported from depend for
// symmetry with the other baselines).
func AccountCommutativity() depend.Conflict {
	return depend.AccountCommutativity()
}

// FileCommutativity returns the forward-commutativity conflicts for File:
// two operations conflict exactly when at least one is a Write and the
// values involved differ (Write(v) commutes with Write(v) and with
// Read(), v; everything else involving a write conflicts).
func FileCommutativity() depend.Conflict {
	value := func(o spec.Op) string {
		if o.Name == "Write" {
			return o.Arg
		}
		return o.Res
	}
	return depend.ConflictFunc("File/commutativity", func(a, b spec.Op) bool {
		if a.Name == "Read" && b.Name == "Read" {
			return false
		}
		return value(a) != value(b)
	})
}

// SemiqueueCommutativity returns the forward-commutativity conflicts for
// Semiqueue: only removals of the same item conflict — identical to the
// hybrid Table IV closure.  Non-determinism makes the two schemes coincide
// here, which is itself one of the paper's points of comparison.
func SemiqueueCommutativity() depend.Conflict {
	return depend.SymmetricClosure(depend.SemiqueueDependency())
}

// CounterCommutativity returns the forward-commutativity conflicts for
// Counter: increments commute; reads conflict with effective increments.
func CounterCommutativity() depend.Conflict {
	return depend.SymmetricClosure(depend.CounterDependency())
}

// ReadWrite returns the classical read/write locking conflicts for the
// named data type.  Operations that can change state classify as writes;
// pure observers classify as reads.  Unknown type names classify
// everything as a write (full mutual exclusion), which is always safe.
func ReadWrite(typeName string) depend.Conflict {
	readers, ok := rwReaders[typeName]
	if !ok {
		readers = map[string]bool{}
	}
	return depend.ReadWriteConflict("rw/"+typeName, func(op spec.Op) depend.Mode {
		if readers[op.Name] {
			return depend.ModeRead
		}
		return depend.ModeWrite
	})
}

// rwReaders lists the operations of each type that never modify state.
// Debit is a writer even when it responds Overdraft under classical
// locking: an untyped scheme cannot see responses, so it must assume the
// worst.
var rwReaders = map[string]map[string]bool{
	"File":      {"Read": true},
	"Queue":     {},
	"Semiqueue": {},
	"Account":   {},
	"Counter":   {"CtrRead": true},
	"Set":       {"Member": true},
	"Directory": {"Lookup": true},
}

// HybridConflict returns the paper's recommended hybrid conflict relation
// (symmetric closure of a minimal dependency relation) for the named data
// type, or nil for unknown names.  For Queue it returns the Table II
// closure — the choice that admits concurrent enqueues; Table III is
// available as QueueCommutativity.
func HybridConflict(typeName string) depend.Conflict {
	switch typeName {
	case "File":
		return depend.SymmetricClosure(depend.FileDependency())
	case "Queue":
		return depend.SymmetricClosure(depend.QueueDependencyII())
	case "Semiqueue":
		return depend.SymmetricClosure(depend.SemiqueueDependency())
	case "Account":
		return depend.SymmetricClosure(depend.AccountDependency())
	case "Counter":
		return depend.SymmetricClosure(depend.CounterDependency())
	case "Set":
		return depend.SymmetricClosure(depend.SetDependency())
	case "Directory":
		return depend.SymmetricClosure(depend.DirectoryDependency())
	}
	return nil
}

// Commutativity returns the forward-commutativity conflict relation for
// the named data type, or nil for unknown names.  Set and Directory
// commutativity coincide with their hybrid closures on same-element
// operations and are returned as such.
func Commutativity(typeName string) depend.Conflict {
	switch typeName {
	case "File":
		return FileCommutativity()
	case "Queue":
		return QueueCommutativity()
	case "Semiqueue":
		return SemiqueueCommutativity()
	case "Account":
		return AccountCommutativity()
	case "Counter":
		return CounterCommutativity()
	case "Set":
		return depend.SymmetricClosure(depend.SetDependency())
	case "Directory":
		return depend.SymmetricClosure(depend.DirectoryDependency())
	}
	return nil
}

// UniverseFor returns a small-domain finite operation universe for a
// built-in type name, or nil for unknown names.  The type's shared conflict
// tables (DescriptorFor) are compiled from exactly this universe, once per
// process: its operations are granted by bitmask probes, and operations
// over other values take the dynamic-dispatch path against the conflict
// relation.
func UniverseFor(typeName string) []spec.Op {
	switch typeName {
	case "File":
		return adt.FileUniverse([]int64{1, 2})
	case "Queue":
		return adt.QueueUniverse([]int64{1, 2})
	case "Semiqueue":
		return adt.SemiqueueUniverse([]int64{1, 2})
	case "Account":
		return adt.AccountUniverse([]int64{1, 2, 3}, []int64{2})
	case "Counter":
		return adt.CounterUniverse([]int64{1, 2}, []int64{0, 1, 2, 3, 4})
	case "Set":
		return adt.SetUniverse([]int64{1, 2})
	case "Directory":
		return adt.DirectoryUniverse([]string{"a", "b"}, []int64{1, 2})
	}
	return nil
}

// Schemes enumerates the three concurrency-control schemes compared in the
// experiments.
var Schemes = []string{"hybrid", "commutativity", "readwrite"}

// ConflictFor returns the conflict relation for a scheme and type name.
func ConflictFor(scheme, typeName string) depend.Conflict {
	switch scheme {
	case "hybrid":
		return HybridConflict(typeName)
	case "commutativity":
		return Commutativity(typeName)
	case "readwrite":
		return ReadWrite(typeName)
	}
	return nil
}

// SpecFor returns the serial specification for a type name, or nil.
func SpecFor(typeName string) spec.Spec {
	for _, sp := range adt.All() {
		if sp.Name() == typeName {
			return sp
		}
	}
	return nil
}

// Descriptor is a built-in type as registration uses it: the serial
// specification and the type's policy set — the paper's hybrid relation,
// the forward-commutativity relation and the read/write classification,
// each compiled over UniverseFor's universe.  DescriptorFor builds one per
// type, on first use, and every object of the type shares it: a compiled
// table never changes once Compile returns, so sharing costs one pointer
// per object instead of three table compilations.
type Descriptor struct {
	Spec spec.Spec
	// Policies is shared by every object of the type; nobody may Add to it.
	Policies *ccpolicy.Set
}

// descriptors holds each built-in type's Descriptor, built on first use.
var descriptors = func() map[string]func() Descriptor {
	m := make(map[string]func() Descriptor, len(rwReaders))
	for typeName := range rwReaders {
		m[typeName] = sync.OnceValue(func() Descriptor {
			set, universe := ccpolicy.NewSet(), UniverseFor(typeName)
			for _, scheme := range Schemes {
				set.Add(scheme, ConflictFor(scheme, typeName), universe)
			}
			return Descriptor{Spec: SpecFor(typeName), Policies: set}
		})
	}
	return m
}()

// DescriptorFor returns the Descriptor for a built-in type name: the same
// one, policy set included, on every call.
func DescriptorFor(typeName string) (Descriptor, bool) {
	build, ok := descriptors[typeName]
	if !ok {
		return Descriptor{}, false
	}
	return build(), true
}
