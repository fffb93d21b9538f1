package adt

import "hybridcc/internal/spec"

// setState is an immutable set of encoded elements.
type setState struct{ members map[string]bool }

func (st setState) with(v string, present bool) setState {
	next := make(map[string]bool, len(st.members)+1)
	for k := range st.members {
		next[k] = true
	}
	if present {
		next[v] = true
	} else {
		delete(next, v)
	}
	return setState{members: next}
}

// Set is a mathematical set with membership-reporting responses:
//
//	Insert(v) — Ok when v was absent, Present when already a member.
//	Remove(v) — Ok when v was present, Absent otherwise.
//	Member(v) — True or False.
//
// Because responses report prior membership, conflicts are response- and
// argument-dependent: operations on distinct elements never depend on each
// other, so a hybrid scheme runs them fully concurrently.
type Set struct{}

// NewSet returns the Set serial specification.
func NewSet() Set { return Set{} }

// Name implements spec.Spec.
func (Set) Name() string { return "Set" }

// Init implements spec.Spec.
func (Set) Init() spec.State { return setState{members: map[string]bool{}} }

// Step implements spec.Spec.
func (Set) Step(s spec.State, op spec.Op) (spec.State, bool) {
	st := s.(setState)
	in := st.members[op.Arg]
	switch op.Name {
	case "Insert":
		switch op.Res {
		case ResOk:
			if in {
				return nil, false
			}
			return st.with(op.Arg, true), true
		case ResPresent:
			if !in {
				return nil, false
			}
			return st, true
		}
	case "Remove":
		switch op.Res {
		case ResOk:
			if !in {
				return nil, false
			}
			return st.with(op.Arg, false), true
		case ResAbsent:
			if in {
				return nil, false
			}
			return st, true
		}
	case "Member":
		switch op.Res {
		case ResTrue:
			return st, in
		case ResFalse:
			return st, !in
		}
	}
	return nil, false
}

// Responses implements spec.Spec.
func (Set) Responses(s spec.State, inv spec.Invocation) []string {
	st := s.(setState)
	in := st.members[inv.Arg]
	switch inv.Name {
	case "Insert":
		if in {
			return respPresent
		}
		return respOk
	case "Remove":
		if in {
			return respOk
		}
		return respAbsent
	case "Member":
		if in {
			return respTrue
		}
		return respFalse
	}
	return nil
}

// ReadResponse implements spec.ReadSpec: Member is the type's pure
// observer.
func (Set) ReadResponse(s spec.State, inv spec.Invocation) (string, bool) {
	if inv.Name != "Member" {
		return "", false
	}
	if s.(setState).members[inv.Arg] {
		return ResTrue, true
	}
	return ResFalse, true
}

// Equal implements spec.Spec.
func (Set) Equal(a, b spec.State) bool {
	sa, sb := a.(setState), b.(setState)
	if len(sa.members) != len(sb.members) {
		return false
	}
	for k := range sa.members {
		if !sb.members[k] {
			return false
		}
	}
	return true
}

// SetSize reports the number of members in a Set state.
func SetSize(s spec.State) int { return len(s.(setState).members) }

// SetHas reports whether the encoded element is a member of a Set state.
func SetHas(s spec.State, elem string) bool { return s.(setState).members[elem] }
