package adt

import (
	"sort"

	"hybridcc/internal/spec"
)

// semiqueueState is an immutable multiset of encoded items, kept sorted so
// states are canonical and cheap to compare.  The slice is copied on every
// step, matching the cost profile of the Queue representation so the
// Queue-vs-Semiqueue experiments compare locking behaviour, not state
// representations.
type semiqueueState struct{ items []string }

func (st semiqueueState) insert(item string) semiqueueState {
	i := sort.SearchStrings(st.items, item)
	next := make([]string, len(st.items)+1)
	copy(next, st.items[:i])
	next[i] = item
	copy(next[i+1:], st.items[i:])
	return semiqueueState{items: next}
}

// remove removes one instance of item; the caller must ensure presence.
func (st semiqueueState) remove(item string) semiqueueState {
	i := sort.SearchStrings(st.items, item)
	next := make([]string, len(st.items)-1)
	copy(next, st.items[:i])
	copy(next[i:], st.items[i+1:])
	return semiqueueState{items: next}
}

func (st semiqueueState) contains(item string) bool {
	i := sort.SearchStrings(st.items, item)
	return i < len(st.items) && st.items[i] == item
}

// Semiqueue is the paper's Semiqueue (Section 4.3, Table IV): Ins inserts an
// item; Rem non-deterministically removes and returns some present item.
// Rem is partial — it blocks when the Semiqueue is empty.
type Semiqueue struct{}

// NewSemiqueue returns the Semiqueue serial specification.
func NewSemiqueue() Semiqueue { return Semiqueue{} }

// Name implements spec.Spec.
func (Semiqueue) Name() string { return "Semiqueue" }

// Init implements spec.Spec.
func (Semiqueue) Init() spec.State { return semiqueueState{} }

// Step implements spec.Spec.
func (Semiqueue) Step(s spec.State, op spec.Op) (spec.State, bool) {
	st := s.(semiqueueState)
	switch op.Name {
	case "Ins":
		if op.Res != ResOk {
			return nil, false
		}
		return st.insert(op.Arg), true
	case "Rem":
		if op.Arg != "" || !st.contains(op.Res) {
			return nil, false
		}
		return st.remove(op.Res), true
	}
	return nil, false
}

// Responses implements spec.Spec.  Rem enumerates every distinct present
// item in sorted order, exposing the specification's non-determinism.
func (Semiqueue) Responses(s spec.State, inv spec.Invocation) []string {
	st := s.(semiqueueState)
	switch inv.Name {
	case "Ins":
		return respOk
	case "Rem":
		if inv.Arg != "" || len(st.items) == 0 {
			return nil
		}
		distinct := make([]string, 0, len(st.items))
		for i, item := range st.items {
			if i == 0 || st.items[i-1] != item {
				distinct = append(distinct, item)
			}
		}
		return distinct
	}
	return nil
}

// ConstantResponse implements spec.ConstantSpec: Ins is always Ok.
func (Semiqueue) ConstantResponse(inv spec.Invocation) (string, bool) { return okIf(inv.Name == "Ins") }

// Equal implements spec.Spec.
func (Semiqueue) Equal(a, b spec.State) bool {
	sa, sb := a.(semiqueueState), b.(semiqueueState)
	if len(sa.items) != len(sb.items) {
		return false
	}
	for i := range sa.items {
		if sa.items[i] != sb.items[i] {
			return false
		}
	}
	return true
}

// SemiqueueSize reports the number of items (with multiplicity) present.
func SemiqueueSize(s spec.State) int {
	return len(s.(semiqueueState).items)
}
