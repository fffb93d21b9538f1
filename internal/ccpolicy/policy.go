// Package ccpolicy makes the concurrency-control scheme of an object a
// first-class, swappable policy rather than registration-time state.
//
// The paper's point is that the conflict relation is *derived from the
// data type*, and that different derivations (minimal dependency,
// forward commutativity, read/write classification) trade concurrency
// for simplicity.  A Policy bundles one such derivation ready to run:
// the scheme name, the conflict relation, and the relation compiled to a
// bitmask table over the type's declared operation universe.  A Set holds
// every policy an object can run — all compiled up front, so switching
// schemes at runtime is a pointer swap, never a recompile.  A built-in
// type's Set is compiled once per process and shared by every object of
// the type (baseline.DescriptorFor); a custom specification's is compiled
// at each registration.
//
// Nothing in a Policy changes after Add returns, so any number of objects
// may read one at once.  Each object keeps its own active and pending
// policy pointers, so objects sharing a Set switch schemes independently.
// An object still installs a different policy only at a quiescent point —
// no active lock holders — because the class indices in transactions'
// held-operation masks are meaningful only against the table that granted
// them: each scheme's table numbers its classes its own way.  core.Object
// enforces that invariant; this package just provides the precompiled
// material.
package ccpolicy

import (
	"hybridcc/internal/depend"
	"hybridcc/internal/spec"
)

// Policy is one compiled concurrency-control policy: a scheme name, its
// conflict relation, and the relation compiled to bitmask rows.  A Policy
// is immutable.
type Policy struct {
	// Scheme names the policy ("hybrid", "commutativity", "readwrite",
	// or "" for a bare custom relation).
	Scheme string
	// Conflict is the symmetric conflict relation — the dynamic-dispatch
	// fallback for operations outside the table's universe.
	Conflict depend.Conflict
	// Table is Conflict compiled over the declared universe.
	Table *depend.CompiledTable
}

// Set is a precompiled policy set: one Policy per scheme a specification
// can express.  Policies are compiled once, at construction, and a switch
// re-installs an existing table rather than compiling a new one.  Objects
// may share one Set — every object of a built-in type does — as long as no
// one Adds to it after it is handed out.
type Set struct {
	policies []*Policy
	byScheme map[string]*Policy
}

// NewSet returns an empty policy set.
func NewSet() *Set {
	return &Set{byScheme: make(map[string]*Policy, 3)} // the three built-in schemes
}

// Add compiles conflict over universe and records it under scheme,
// replacing any previous policy of the same scheme.  It returns the new
// Policy.
func (s *Set) Add(scheme string, conflict depend.Conflict, universe []spec.Op) *Policy {
	p := &Policy{
		Scheme:   scheme,
		Conflict: conflict,
		Table:    depend.Compile(conflict, universe, 0),
	}
	if old := s.byScheme[scheme]; old != nil {
		for i, q := range s.policies {
			if q == old {
				s.policies[i] = p
			}
		}
	} else {
		s.policies = append(s.policies, p)
	}
	s.byScheme[scheme] = p
	return p
}

// Get returns the policy registered under scheme, or nil.
func (s *Set) Get(scheme string) *Policy { return s.byScheme[scheme] }

// Len returns the number of policies in the set.
func (s *Set) Len() int { return len(s.policies) }

// Schemes returns the registered scheme names in insertion order.
func (s *Set) Schemes() []string {
	out := make([]string, len(s.policies))
	for i, p := range s.policies {
		out[i] = p.Scheme
	}
	return out
}
