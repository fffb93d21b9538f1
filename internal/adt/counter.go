package adt

import "hybridcc/internal/spec"

// counterState is the current count.
type counterState struct{ n int64 }

// Counter is an increment-only counter with a read operation, one of the
// typed objects the paper's introduction motivates.  Inc(n) adds n; CtrRead
// returns the current count.  Increments never depend on one another, so a
// hybrid scheme admits fully concurrent incrementing transactions.
type Counter struct{}

// NewCounter returns the Counter serial specification.
func NewCounter() Counter { return Counter{} }

// Name implements spec.Spec.
func (Counter) Name() string { return "Counter" }

// Init implements spec.Spec.
func (Counter) Init() spec.State { return counterState{} }

// Step implements spec.Spec.
func (Counter) Step(s spec.State, op spec.Op) (spec.State, bool) {
	st := s.(counterState)
	switch op.Name {
	case "Inc":
		n := Atoi(op.Arg)
		if op.Res != ResOk || n < 0 {
			return nil, false
		}
		return counterState{n: st.n + n}, true
	case "CtrRead":
		if op.Arg != "" || op.Res != Itoa(st.n) {
			return nil, false
		}
		return st, true
	}
	return nil, false
}

// Responses implements spec.Spec.
func (Counter) Responses(s spec.State, inv spec.Invocation) []string {
	st := s.(counterState)
	switch inv.Name {
	case "Inc":
		if Atoi(inv.Arg) < 0 {
			return nil
		}
		return respOk
	case "CtrRead":
		if inv.Arg != "" {
			return nil
		}
		return []string{Itoa(st.n)}
	}
	return nil
}

// ReadResponse implements spec.ReadSpec: CtrRead is the type's pure
// observer.
func (Counter) ReadResponse(s spec.State, inv spec.Invocation) (string, bool) {
	if inv.Name != "CtrRead" || inv.Arg != "" {
		return "", false
	}
	return Itoa(s.(counterState).n), true
}

// ConstantResponse implements spec.ConstantSpec: Inc(n ≥ 0) is always Ok.
func (Counter) ConstantResponse(inv spec.Invocation) (string, bool) {
	return okIf(inv.Name == "Inc" && atLeast(inv.Arg, 0))
}

// Equal implements spec.Spec.
func (Counter) Equal(a, b spec.State) bool { return a.(counterState) == b.(counterState) }

// CounterValue extracts the count from a Counter state.
func CounterValue(s spec.State) int64 { return s.(counterState).n }
