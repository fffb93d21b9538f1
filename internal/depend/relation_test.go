package depend

import (
	"strings"
	"testing"
	"testing/quick"

	"hybridcc/internal/adt"
	"hybridcc/internal/spec"
)

func TestSymmetricClosure(t *testing.T) {
	r := RelationFunc("r", func(q, p spec.Op) bool {
		return q.Name == "Read" && p.Name == "Write"
	})
	c := SymmetricClosure(r)
	read, write := adt.FileRead(1), adt.FileWrite(1)
	if !c.Conflicts(read, write) || !c.Conflicts(write, read) {
		t.Error("symmetric closure must conflict both ways")
	}
	if c.Conflicts(write, write) {
		t.Error("unrelated pair must not conflict")
	}
	if !strings.Contains(c.String(), "sym(") {
		t.Errorf("closure name = %q", c.String())
	}
}

func TestSymmetricClosureIsSymmetric(t *testing.T) {
	universe := adt.AccountUniverse([]int64{1, 2}, []int64{2})
	c := SymmetricClosure(AccountDependency())
	f := func(i, j uint8) bool {
		a := universe[int(i)%len(universe)]
		b := universe[int(j)%len(universe)]
		return c.Conflicts(a, b) == c.Conflicts(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNoAndAllConflict(t *testing.T) {
	a, b := adt.Enq(1), adt.Deq(1)
	if NoConflict().Conflicts(a, b) {
		t.Error("NoConflict conflicted")
	}
	if !AllConflict().Conflicts(a, b) {
		t.Error("AllConflict did not conflict")
	}
}

func TestUnionAndMinus(t *testing.T) {
	r1 := RelationFunc("r1", func(q, p spec.Op) bool { return q.Name == "A" })
	r2 := RelationFunc("r2", func(q, p spec.Op) bool { return p.Name == "B" })
	u := Union(r1, r2)
	aOp := spec.Op{Name: "A"}
	bOp := spec.Op{Name: "B"}
	cOp := spec.Op{Name: "C"}
	if !u.Depends(aOp, cOp) || !u.Depends(cOp, bOp) || u.Depends(cOp, cOp) {
		t.Error("Union misbehaved")
	}
	m := Minus(u, aOp, cOp)
	if m.Depends(aOp, cOp) {
		t.Error("Minus did not remove the pair")
	}
	if !m.Depends(aOp, bOp) {
		t.Error("Minus removed too much")
	}
}

func TestPairSetBasics(t *testing.T) {
	s := NewPairSet()
	if s.Len() != 0 {
		t.Fatal("new set not empty")
	}
	s.Add(adt.Enq(1), adt.Enq(2))
	s.Add(adt.Enq(1), adt.Enq(2)) // duplicate
	s.Add(adt.Deq(1), adt.Deq(1))
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2", s.Len())
	}
	if !s.Contains(adt.Enq(1), adt.Enq(2)) || s.Contains(adt.Enq(2), adt.Enq(1)) {
		t.Error("Contains misbehaved")
	}
	if !s.Depends(adt.Deq(1), adt.Deq(1)) {
		t.Error("Depends must mirror Contains")
	}
	pairs := s.Pairs()
	if len(pairs) != 2 {
		t.Fatalf("Pairs len = %d", len(pairs))
	}
	// Deterministic order.
	again := s.Pairs()
	for i := range pairs {
		if pairs[i] != again[i] {
			t.Error("Pairs order is not deterministic")
		}
	}
	if !strings.Contains(s.Dump(), "depends on") {
		t.Error("Dump format")
	}
}

func TestPairSetAlgebra(t *testing.T) {
	a := NewPairSet()
	a.Add(adt.Enq(1), adt.Enq(2))
	a.Add(adt.Deq(1), adt.Deq(1))
	b := NewPairSet()
	b.Add(adt.Enq(1), adt.Enq(2))
	if a.Equal(b) || b.Equal(a) {
		t.Error("unequal sets reported equal")
	}
	if !b.SubsetOf(a) || a.SubsetOf(b) {
		t.Error("SubsetOf misbehaved")
	}
	d := a.Diff(b)
	if d.Len() != 1 || !d.Contains(adt.Deq(1), adt.Deq(1)) {
		t.Errorf("Diff = %s", d.Dump())
	}
	b.Add(adt.Deq(1), adt.Deq(1))
	if !a.Equal(b) {
		t.Error("equal sets reported unequal")
	}
}

func TestGround(t *testing.T) {
	universe := adt.FileUniverse([]int64{1, 2})
	g := Ground(FileDependency(), universe)
	// Read(0), Read(1), Read(2) against writes of different values:
	// (R0,W1),(R0,W2),(R1,W2),(R2,W1) = 4 pairs.
	if g.Len() != 4 {
		t.Errorf("ground Table I over {1,2} has %d pairs, want 4:\n%s", g.Len(), g.Dump())
	}
}

func TestReadWriteConflict(t *testing.T) {
	classify := func(op spec.Op) Mode {
		if op.Name == "Read" {
			return ModeRead
		}
		return ModeWrite
	}
	c := ReadWriteConflict("rw", classify)
	r1, r2 := adt.FileRead(1), adt.FileRead(2)
	w := adt.FileWrite(1)
	if c.Conflicts(r1, r2) {
		t.Error("read-read must not conflict")
	}
	if !c.Conflicts(r1, w) || !c.Conflicts(w, r1) || !c.Conflicts(w, w) {
		t.Error("writer conflicts missing")
	}
}

func TestForwardCommuteBasics(t *testing.T) {
	sp := adt.NewAccount()
	universe := adt.AccountUniverse([]int64{1, 2}, []int64{2})
	invs := adt.AccountInvocations([]int64{1, 2}, []int64{2})
	if !ForwardCommute(sp, adt.Credit(1), adt.Credit(2), universe, invs, 2, 2) {
		t.Error("credits must commute")
	}
	if ForwardCommute(sp, adt.Credit(1), adt.Post(2), universe, invs, 2, 2) {
		t.Error("credit and post must not commute")
	}
	if !ForwardCommute(sp, adt.Credit(1), adt.Debit(1), universe, invs, 2, 2) {
		t.Error("credit and successful debit must commute")
	}
	if ForwardCommute(sp, adt.Debit(1), adt.Debit(2), universe, invs, 2, 2) {
		t.Error("successful debits must not commute (insufficient funds order)")
	}
}

// TestTableConditionsMatchPredicates cross-checks the paper's cell
// conditions for Tables I and IV against the predicate relations on a
// sample of concrete operations.
func TestTableConditionsMatchPredicates(t *testing.T) {
	// Table I: row Read(), v′ depends on column Write(v) iff v ≠ v′.
	r := FileDependency()
	if !r.Depends(adt.FileRead(1), adt.FileWrite(2)) {
		t.Error("Table I: Read(1) must depend on Write(2)")
	}
	if r.Depends(adt.FileRead(2), adt.FileWrite(2)) {
		t.Error("Table I: Read(2) must not depend on Write(2)")
	}
	if r.Depends(adt.FileWrite(1), adt.FileWrite(2)) {
		t.Error("Table I: writes are independent (Thomas write rule)")
	}
	// Table IV: only Rem/Rem with equal items.
	s := SemiqueueDependency()
	if !s.Depends(adt.Rem(3), adt.Rem(3)) || s.Depends(adt.Rem(3), adt.Rem(4)) {
		t.Error("Table IV Rem/Rem condition wrong")
	}
	if s.Depends(adt.Ins(3), adt.Ins(3)) || s.Depends(adt.Rem(3), adt.Ins(3)) {
		t.Error("Table IV must leave Ins unconstrained")
	}
}

func TestRelationAndConflictNames(t *testing.T) {
	if FileDependency().String() == "" || AccountCommutativity().String() == "" {
		t.Error("relations must be named")
	}
	ps := NewPairSet()
	if !strings.Contains(ps.String(), "pairset") {
		t.Error("PairSet name")
	}
}
