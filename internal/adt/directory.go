package adt

import (
	"strings"

	"hybridcc/internal/spec"
)

// dirState is an immutable key → encoded-value map.
type dirState struct{ bind map[string]string }

func (st dirState) with(k, v string, bound bool) dirState {
	next := make(map[string]string, len(st.bind)+1)
	for key, val := range st.bind {
		next[key] = val
	}
	if bound {
		next[k] = v
	} else {
		delete(next, k)
	}
	return dirState{bind: next}
}

// Directory maps keys to values — the "directories" of the paper's
// introduction:
//
//	Bind(k=v)  — Ok when k was unbound (binds it), Bound when already bound
//	             (no change).
//	Unbind(k)  — Ok when k was bound (removes it), Absent otherwise.
//	Lookup(k)  — the bound value, or Absent.
//
// Operations on distinct keys never depend on each other, so a hybrid
// scheme behaves like per-key locking derived mechanically from the
// specification rather than designed by hand.
type Directory struct{}

// NewDirectory returns the Directory serial specification.
func NewDirectory() Directory { return Directory{} }

// Name implements spec.Spec.
func (Directory) Name() string { return "Directory" }

// Init implements spec.Spec.
func (Directory) Init() spec.State { return dirState{bind: map[string]string{}} }

// splitBindArg splits "k=v" into its parts.
func splitBindArg(arg string) (key, val string, ok bool) {
	i := strings.LastIndexByte(arg, '=')
	if i < 0 {
		return "", "", false
	}
	return arg[:i], arg[i+1:], true
}

// Step implements spec.Spec.
func (Directory) Step(s spec.State, op spec.Op) (spec.State, bool) {
	st := s.(dirState)
	switch op.Name {
	case "Bind":
		key, val, ok := splitBindArg(op.Arg)
		if !ok {
			return nil, false
		}
		_, bound := st.bind[key]
		switch op.Res {
		case ResOk:
			if bound {
				return nil, false
			}
			return st.with(key, val, true), true
		case ResBound:
			if !bound {
				return nil, false
			}
			return st, true
		}
	case "Unbind":
		_, bound := st.bind[op.Arg]
		switch op.Res {
		case ResOk:
			if !bound {
				return nil, false
			}
			return st.with(op.Arg, "", false), true
		case ResAbsent:
			if bound {
				return nil, false
			}
			return st, true
		}
	case "Lookup":
		val, bound := st.bind[op.Arg]
		if op.Res == ResAbsent {
			return st, !bound
		}
		return st, bound && val == op.Res
	}
	return nil, false
}

// Responses implements spec.Spec.
func (Directory) Responses(s spec.State, inv spec.Invocation) []string {
	st := s.(dirState)
	switch inv.Name {
	case "Bind":
		key, _, ok := splitBindArg(inv.Arg)
		if !ok {
			return nil
		}
		if _, bound := st.bind[key]; bound {
			return respBound
		}
		return respOk
	case "Unbind":
		if _, bound := st.bind[inv.Arg]; bound {
			return respOk
		}
		return respAbsent
	case "Lookup":
		if val, bound := st.bind[inv.Arg]; bound {
			return []string{val}
		}
		return respAbsent
	}
	return nil
}

// ReadResponse implements spec.ReadSpec: Lookup is the type's pure
// observer.
func (Directory) ReadResponse(s spec.State, inv spec.Invocation) (string, bool) {
	if inv.Name != "Lookup" {
		return "", false
	}
	if val, bound := s.(dirState).bind[inv.Arg]; bound {
		return val, true
	}
	return ResAbsent, true
}

// Equal implements spec.Spec.
func (Directory) Equal(a, b spec.State) bool {
	da, db := a.(dirState), b.(dirState)
	if len(da.bind) != len(db.bind) {
		return false
	}
	for k, v := range da.bind {
		if w, ok := db.bind[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// DirectorySize reports the number of bindings in a Directory state.
func DirectorySize(s spec.State) int { return len(s.(dirState).bind) }

// DirectoryLookup returns the value bound to key in a Directory state.
func DirectoryLookup(s spec.State, key string) (int64, bool) {
	val, bound := s.(dirState).bind[key]
	if !bound {
		return 0, false
	}
	return Atoi(val), true
}
