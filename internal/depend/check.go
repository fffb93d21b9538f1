package depend

import (
	"fmt"

	"hybridcc/internal/spec"
)

// Counterexample witnesses a violation of Definition 3: h•p and h•k are
// legal, no operation of k depends on p, yet h•p•k is illegal.
type Counterexample struct {
	H []spec.Op
	P spec.Op
	K []spec.Op
}

// String formats the counterexample in the paper's notation.
func (c *Counterexample) String() string {
	return fmt.Sprintf("h = %s; p = %s; k = %s: h•p and h•k legal, no op of k depends on p, but h•p•k illegal",
		spec.SeqString(c.H), c.P, spec.SeqString(c.K))
}

// IsDependency checks Definition 3 exhaustively over the finite universe:
// for every legal h (|h| ≤ hLen), every p ∈ universe with h•p legal, and
// every k (|k| ≤ kLen, ops from universe) with h•k legal and no operation
// of k depending on p, the sequence h•p•k must be legal.  It returns nil
// when r passes, or the first counterexample found.
//
// The search walks h and k as paths through the specification's state
// space, extending k simultaneously after h and after h•p so that the
// moment an extension is legal in the former but not the latter is exactly
// a counterexample.
func IsDependency(sp spec.Spec, r Relation, universe []spec.Op, hLen, kLen int) *Counterexample {
	var cx *Counterexample

	// checkK explores all k after the fixed h and p.  sH is the state after
	// h, sHP the state after h•p.  Returns false when a counterexample has
	// been recorded.
	var checkK func(h []spec.Op, p spec.Op, sH, sHP spec.State, k []spec.Op, budget int) bool
	checkK = func(h []spec.Op, p spec.Op, sH, sHP spec.State, k []spec.Op, budget int) bool {
		if budget == 0 {
			return true
		}
		for _, q := range universe {
			if r.Depends(q, p) {
				continue
			}
			nH, okH := sp.Step(sH, q)
			if !okH {
				continue // h•k•q not legal; irrelevant.
			}
			nHP, okHP := sp.Step(sHP, q)
			if !okHP {
				cx = &Counterexample{
					H: append([]spec.Op(nil), h...),
					P: p,
					K: append(append([]spec.Op(nil), k...), q),
				}
				return false
			}
			if !checkK(h, p, nH, nHP, append(k, q), budget-1) {
				return false
			}
		}
		return true
	}

	// walkH explores all legal h.
	var walkH func(h []spec.Op, sH spec.State, budget int) bool
	walkH = func(h []spec.Op, sH spec.State, budget int) bool {
		for _, p := range universe {
			sHP, ok := sp.Step(sH, p)
			if !ok {
				continue
			}
			if !checkK(h, p, sH, sHP, nil, kLen) {
				return false
			}
		}
		if budget == 0 {
			return true
		}
		for _, op := range universe {
			next, ok := sp.Step(sH, op)
			if !ok {
				continue
			}
			if !walkH(append(h, op), next, budget-1) {
				return false
			}
		}
		return true
	}

	walkH(nil, sp.Init(), hLen)
	return cx
}

// InvalidatedBy derives the invalidated-by relation of Definitions 8–9 over
// the finite universe: (q, p) is included iff there exist h1 (|h1| ≤ h1Len)
// and h2 (|h2| ≤ h2Len) such that h1•p•h2 and h1•h2•q are legal but
// h1•p•h2•q is not.  By Theorem 10 the result is a dependency relation
// (over the universe); tests verify this via IsDependency.
func InvalidatedBy(sp spec.Spec, universe []spec.Op, h1Len, h2Len int) *PairSet {
	out := NewPairSet()

	// walkH2 explores h2 extending both h1 (state s) and h1•p (state sp_).
	var walkH2 func(p spec.Op, s, sp_ spec.State, budget int)
	walkH2 = func(p spec.Op, s, sp_ spec.State, budget int) {
		// q legal after h1•h2 but illegal after h1•p•h2 ⇒ p invalidates q.
		for _, q := range universe {
			if _, ok := sp.Step(s, q); !ok {
				continue
			}
			if _, ok := sp.Step(sp_, q); !ok {
				out.Add(q, p)
			}
		}
		if budget == 0 {
			return
		}
		for _, op := range universe {
			n, ok := sp.Step(s, op)
			if !ok {
				continue
			}
			np, ok := sp.Step(sp_, op)
			if !ok {
				continue // h1•p•h2 must stay legal.
			}
			walkH2(p, n, np, budget-1)
		}
	}

	var walkH1 func(s spec.State, budget int)
	walkH1 = func(s spec.State, budget int) {
		for _, p := range universe {
			sp_, ok := sp.Step(s, p)
			if !ok {
				continue
			}
			walkH2(p, s, sp_, h2Len)
		}
		if budget == 0 {
			return
		}
		for _, op := range universe {
			n, ok := sp.Step(s, op)
			if !ok {
				continue
			}
			walkH1(n, budget-1)
		}
	}

	walkH1(sp.Init(), h1Len)
	return out
}

// IsConflictDependency checks Definition 3 with a symmetric conflict
// relation playing the role of the dependency relation; Theorems 11 and 17
// make this the exact correctness condition for the locking algorithm.
func IsConflictDependency(sp spec.Spec, c Conflict, universe []spec.Op, hLen, kLen int) *Counterexample {
	asRelation := RelationFunc(c.String(), func(q, p spec.Op) bool { return c.Conflicts(q, p) })
	return IsDependency(sp, asRelation, universe, hLen, kLen)
}

// RemovablePairs returns the ground pairs of r (restricted to the universe)
// whose individual removal still leaves a dependency relation.  An empty
// result means r is minimal over the universe; each removable pair is a
// witness of non-minimality.
func RemovablePairs(sp spec.Spec, r Relation, universe []spec.Op, hLen, kLen int) []OpPair {
	var removable []OpPair
	for _, pair := range Ground(r, universe).Pairs() {
		weaker := Minus(r, pair[0], pair[1])
		if IsDependency(sp, weaker, universe, hLen, kLen) == nil {
			removable = append(removable, pair)
		}
	}
	return removable
}
