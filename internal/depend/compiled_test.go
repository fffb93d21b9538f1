package depend

import (
	"testing"

	"hybridcc/internal/spec"
)

func op(name, arg, res string) spec.Op { return spec.Op{Name: name, Arg: arg, Res: res} }

// TestCompiledTableInterning pins the frozen contract: the universe's order
// gives the class ids, each row keeps the relation's orientation, an
// operation outside the universe has no class, and limit truncates the
// universe.
func TestCompiledTableInterning(t *testing.T) {
	a1, b1 := op("A", "1", "Ok"), op("B", "1", "Ok")
	// A held B blocks a requested A; nothing else conflicts.
	c := ConflictFunc("B-before-A", func(held, req spec.Op) bool { return held.Name == "B" && req.Name == "A" })
	tbl := Compile(c, []spec.Op{b1, a1, b1}, 0)
	if tbl.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (the duplicate takes no class)", tbl.Len())
	}
	for want, o := range []spec.Op{b1, a1} {
		if i, ok := tbl.ClassOf(o); !ok || i != want {
			t.Fatalf("ClassOf(%s) = %d, %v; want %d, true", o, i, ok, want)
		}
	}
	if got := tbl.Row(1); len(got) != 1 || got[0] != 1<<0 {
		t.Errorf("Row(A) = %b, want only B's bit", got)
	}
	if got := tbl.Row(0); len(got) != 1 || got[0] != 0 {
		t.Errorf("Row(B) = %b, want empty", got)
	}
	if !tbl.Conflicts(b1, a1) || tbl.Conflicts(a1, b1) {
		t.Error("rows must keep the relation's orientation")
	}
	if m, covered := tbl.BlockMask(a1.Inv()); !covered || !m.Has(0) || m.Has(1) {
		t.Errorf("BlockMask(A(1)) = %b, %v; want B's bit, true", m, covered)
	}

	fresh := op("A", "2", "Ok")
	if i, ok := tbl.ClassOf(fresh); ok {
		t.Fatalf("ClassOf(%s) = %d, true; an operation outside the universe has no class", fresh, i)
	}
	if m, covered := tbl.BlockMask(fresh.Inv()); covered || m != nil {
		t.Errorf("BlockMask(A(2)) = %b, %v; want nil, false", m, covered)
	}
	if !tbl.Conflicts(b1, fresh) || tbl.Conflicts(fresh, b1) {
		t.Error("an operation without a class must take the relation's answer")
	}
	if tbl.Len() != 2 {
		t.Errorf("Len = %d after lookups, want 2", tbl.Len())
	}

	cut := Compile(c, []spec.Op{b1, a1}, 1)
	if _, ok := cut.ClassOf(a1); ok || cut.Len() != 1 {
		t.Errorf("limit 1: Len = %d, A has a class: %v; want 1, false", cut.Len(), ok)
	}
}

func TestCompiledTableLimit(t *testing.T) {
	c := AllConflict()
	tbl := Compile(c, []spec.Op{op("A", "", "Ok"), op("B", "", "Ok"), op("C", "", "Ok")}, 2)
	if tbl.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tbl.Len())
	}
	if _, ok := tbl.ClassOf(op("C", "", "Ok")); ok {
		t.Fatal("the universe past the limit must have no class")
	}
	// Operations without a class fall back to the underlying relation.
	if !tbl.Conflicts(op("C", "", "Ok"), op("A", "", "Ok")) {
		t.Error("fallback path must consult the underlying relation")
	}
}

// TestCompiledTablePreservesAsymmetry pins the row orientation: rows[r] bit
// h mirrors Conflicts(held, requested), so even an (incorrect) asymmetric
// input compiles to a table that agrees with the interface path call for
// call.
func TestCompiledTablePreservesAsymmetry(t *testing.T) {
	a, b := op("A", "", "Ok"), op("B", "", "Ok")
	c := ConflictFunc("asym", func(x, y spec.Op) bool { return x == a && y == b })
	tbl := Compile(c, []spec.Op{a, b}, 0)
	for _, pair := range [][2]spec.Op{{a, b}, {b, a}, {a, a}, {b, b}} {
		if got, want := tbl.Conflicts(pair[0], pair[1]), c.Conflicts(pair[0], pair[1]); got != want {
			t.Errorf("Conflicts(%s, %s) = %v, interface path says %v", pair[0], pair[1], got, want)
		}
	}
}

func TestMask(t *testing.T) {
	var m Mask
	m.Set(3)
	m.Set(100)
	if !m.Has(3) || !m.Has(100) || m.Has(4) || m.Has(164) {
		t.Fatalf("mask bits wrong: %v", m)
	}
	row := make([]uint64, 1)
	row[0] = 1 << 3
	if !m.Intersects(row) {
		t.Error("mask must intersect a shorter row on a shared bit")
	}
	if (Mask{1 << 5}).Intersects(row) {
		t.Error("disjoint mask must not intersect")
	}
	// A row shorter than the mask treats missing words as zero.
	if (Mask{0, 1}).Intersects(row) {
		t.Error("bit beyond the row's length must not intersect")
	}
}
