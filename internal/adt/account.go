package adt

import "hybridcc/internal/spec"

// accountState is the current balance.  Balances are non-negative: the
// initial balance is zero, Credit and Post only increase it, and Debit
// succeeds only when the balance covers the amount.
type accountState struct{ bal int64 }

// Account is the paper's Account type (Section 4.3, Table V; appendix):
//
//	Credit(n)  — add n to the balance (n ≥ 0); always Ok.
//	Post(k)    — post interest: multiply the balance by the factor k ≥ 1
//	             (see doc.go for the exact-arithmetic substitution).
//	Debit(n)   — subtract n if the balance covers it (response Ok);
//	             otherwise leave the balance unchanged and respond
//	             Overdraft.  The lock an executing Debit needs depends on
//	             its response, the paper's headline example of
//	             response-dependent locking.
type Account struct{}

// NewAccount returns the Account serial specification.
func NewAccount() Account { return Account{} }

// Name implements spec.Spec.
func (Account) Name() string { return "Account" }

// Init implements spec.Spec.
func (Account) Init() spec.State { return accountState{bal: 0} }

// Step implements spec.Spec.
func (Account) Step(s spec.State, op spec.Op) (spec.State, bool) {
	st := s.(accountState)
	switch op.Name {
	case "Credit":
		n := Atoi(op.Arg)
		if op.Res != ResOk || n < 0 {
			return nil, false
		}
		return accountState{bal: st.bal + n}, true
	case "Post":
		k := Atoi(op.Arg)
		if op.Res != ResOk || k < 1 {
			return nil, false
		}
		return accountState{bal: st.bal * k}, true
	case "Debit":
		n := Atoi(op.Arg)
		if n < 0 {
			return nil, false
		}
		switch op.Res {
		case ResOk:
			if st.bal < n {
				return nil, false
			}
			return accountState{bal: st.bal - n}, true
		case ResOverdraft:
			if st.bal >= n {
				return nil, false
			}
			return st, true
		}
	}
	return nil, false
}

// Responses implements spec.Spec.  Debit is total but its response is
// determined by the state, so exactly one of Ok/Overdraft is offered.
func (Account) Responses(s spec.State, inv spec.Invocation) []string {
	st := s.(accountState)
	switch inv.Name {
	case "Credit":
		if Atoi(inv.Arg) < 0 {
			return nil
		}
		return respOk
	case "Post":
		if Atoi(inv.Arg) < 1 {
			return nil
		}
		return respOk
	case "Debit":
		n := Atoi(inv.Arg)
		if n < 0 {
			return nil
		}
		if st.bal >= n {
			return respOk
		}
		return respOverdraft
	}
	return nil
}

// ConstantResponse implements spec.ConstantSpec: Credit(n ≥ 0) and
// Post(k ≥ 1) are always Ok.
func (Account) ConstantResponse(inv spec.Invocation) (string, bool) {
	return okIf(inv.Name == "Credit" && atLeast(inv.Arg, 0) || inv.Name == "Post" && atLeast(inv.Arg, 1))
}

// Equal implements spec.Spec.
func (Account) Equal(a, b spec.State) bool { return a.(accountState) == b.(accountState) }

// AccountBalance extracts the balance from an Account state.
func AccountBalance(s spec.State) int64 { return s.(accountState).bal }
