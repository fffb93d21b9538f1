package depend

import (
	"fmt"

	"hybridcc/internal/spec"
)

// This file compiles conflict relations to static bitmask tables, after
// Malta & Martinez ("Automating Fine Concurrency Control in Object-Oriented
// Databases"): over a finite operation universe a conflict relation is just
// a boolean matrix, so the per-lock-request question "does op conflict with
// anything another transaction holds?" reduces to ANDing one matrix row
// against a per-transaction bitmask of held classes.  The matrix is a
// property of the data type and its scheme, so it is compiled once, from the
// type's declared universe, and never changes afterwards.  Operations
// outside that universe (unbounded value domains, or a universe cut at the
// limit) have no class and take the dynamic-dispatch path.

// DefaultCompiledLimit caps how many operations of a declared universe a
// CompiledTable compiles; the rest of the universe takes the
// dynamic-dispatch path.  1024 classes cost 1024 × 128 B of rows at worst.
const DefaultCompiledLimit = 1024

// Mask is a bitset over the operation classes of one CompiledTable.  The
// runtime keeps one per active transaction, recording which classes the
// transaction holds operations of.
type Mask []uint64

// Set sets bit i, growing the mask as needed.
func (m *Mask) Set(i int) {
	w := i >> 6
	for len(*m) <= w {
		*m = append(*m, 0)
	}
	(*m)[w] |= 1 << (uint(i) & 63)
}

// Has reports whether bit i is set.
func (m Mask) Has(i int) bool {
	w := i >> 6
	return w < len(m) && m[w]&(1<<(uint(i)&63)) != 0
}

// Intersects reports whether the mask shares a set bit with row.  The two
// may differ in length (a mask grows only as far as its highest class);
// missing words are zero.
func (m Mask) Intersects(row []uint64) bool {
	n := len(m)
	if len(row) < n {
		n = len(row)
	}
	for w := 0; w < n; w++ {
		if m[w]&row[w] != 0 {
			return true
		}
	}
	return false
}

// Or merges every set bit of row into the mask, growing it as needed.
func (m *Mask) Or(row []uint64) {
	for len(*m) < len(row) {
		*m = append(*m, 0)
	}
	for w, bits := range row {
		(*m)[w] |= bits
	}
}

// CompiledTable is a conflict relation compiled to a bitmask matrix over the
// operation classes of a declared universe.  rows[r] holds bit h exactly
// when the underlying relation reports Conflicts(op(h), op(r)) — h the held
// operation, r the requested one — so the table reproduces the interface
// path bit-for-bit even for (incorrect) asymmetric inputs.
//
// Nothing in a CompiledTable changes after Compile returns, so any number
// of goroutines may read one at once.
type CompiledTable struct {
	conflict Conflict
	index    map[spec.Op]int
	ops      []spec.Op
	rows     [][]uint64
	// blockMasks holds, for each invocation of the universe, the union of
	// its classes' rows (BlockMask).
	blockMasks map[spec.Invocation]Mask
}

// Compile builds the table of c over universe: its first limit distinct
// operations, in order, become classes 0, 1, ….  A limit ≤ 0 means
// DefaultCompiledLimit; a nil universe compiles an empty table.  Compiling
// costs one conflict evaluation per ordered pair of classes; every later
// request of a class is a pure bitmask probe.
func Compile(c Conflict, universe []spec.Op, limit int) *CompiledTable {
	if limit <= 0 {
		limit = DefaultCompiledLimit
	}
	t := &CompiledTable{
		conflict:   c,
		index:      make(map[spec.Op]int, min(len(universe), limit)),
		blockMasks: make(map[spec.Invocation]Mask),
	}
	for _, op := range universe {
		if len(t.ops) == limit {
			break
		}
		if _, dup := t.index[op]; !dup {
			t.index[op] = len(t.ops)
			t.ops = append(t.ops, op)
		}
	}
	words := (len(t.ops) + 63) / 64
	bits := make([]uint64, len(t.ops)*words)
	t.rows = make([][]uint64, len(t.ops))
	for r, req := range t.ops {
		row := bits[r*words : (r+1)*words : (r+1)*words]
		for h, held := range t.ops {
			if c.Conflicts(held, req) {
				row[h>>6] |= 1 << (uint(h) & 63)
			}
		}
		t.rows[r] = row
		m := t.blockMasks[req.Inv()]
		m.Or(row)
		t.blockMasks[req.Inv()] = m
	}
	return t
}

// Len reports the number of classes.
func (t *CompiledTable) Len() int { return len(t.ops) }

// ClassOf returns op's dense class index, and false when op lies outside
// the compiled universe.
func (t *CompiledTable) ClassOf(op spec.Op) (int, bool) {
	i, ok := t.index[op]
	return i, ok
}

// Row returns the conflict row of a class: the bitset of held classes that
// conflict with a request of this class.  The returned slice is owned by
// the table and must not be mutated.
func (t *CompiledTable) Row(class int) []uint64 { return t.rows[class] }

// BlockMask returns the wakeup mask of a blocked invocation: the union of
// the conflict rows of inv's classes — the set of held classes whose
// release could unblock a call of inv.  The second result reports whether
// inv has classes at all; the universe is taken as enumerating the
// responses of each invocation it covers, so for an invocation it does not
// cover the caller must fall back to conservative wakeups for
// state-changing events.  The returned mask is owned by the table and must
// not be mutated.
func (t *CompiledTable) BlockMask(inv spec.Invocation) (Mask, bool) {
	m, ok := t.blockMasks[inv]
	return m, ok
}

// Conflicts implements Conflict by probing the matrix, falling back to the
// underlying relation when either operation has no class.  a is the held
// operation and b the requested one, matching the runtime's orientation.
func (t *CompiledTable) Conflicts(a, b spec.Op) bool {
	h, okA := t.index[a]
	r, okB := t.index[b]
	if !okA || !okB {
		return t.conflict.Conflicts(a, b)
	}
	return t.rows[r][h>>6]&(1<<(uint(h)&63)) != 0
}

// String implements Conflict.
func (t *CompiledTable) String() string {
	return fmt.Sprintf("compiled(%s, %d classes)", t.conflict, len(t.ops))
}
