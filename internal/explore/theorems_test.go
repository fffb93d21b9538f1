package explore

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"

	"hybridcc/internal/adt"
	"hybridcc/internal/baseline"
	"hybridcc/internal/depend"
	"hybridcc/internal/histories"
	"hybridcc/internal/lockmachine"
	"hybridcc/internal/spec"
)

// The paper's Theorems 16 and 17, checked on the tables the engine runs:
// every built-in type under every scheme, with the compiled table of
// baseline.DescriptorFor as the LOCK machine's conflict relation.
//
//   - TestTheorem16Soundness: every bounded schedule LOCK accepts is well
//     formed and online hybrid atomic.
//   - TestDefinition3: each table is a dependency relation (Definition 3,
//     checked directly over the type's universe).
//   - TestTheorem17Necessity: each pair of each Hybrid table is needed.
//     Without it, Definition 3 has a counterexample, and replaying that
//     counterexample through LOCK gives an accepted history that is not
//     hybrid atomic.
//   - TestConcurrencyTable: the number of histories LOCK accepts at the
//     soundness bounds, per type and scheme, matches concurrency.txt and
//     follows table containment: fewer conflicts, more histories.
//
// A pair removed from Account's Hybrid table fails TestDefinition3 and
// TestExhaustiveAccountHybrid: two transactions from a zero balance are too
// few for the soundness search to reach the schedule the gap lets through.  A pair added to it is removable, which
// fails TestTheorem17Necessity, and it changes concurrency.txt.  CI runs
// these tests without -race in the "Explorer" step.  Under -race the
// soundness search runs a step shallower, and concurrency.txt, whose
// counts are for the full depth, is not read.  The four run in parallel:
// they only read the compiled tables, which any number of goroutines may.

// soundnessDepth is the depth of the soundness search: two transactions
// over the universe's invocations, commit timestamps 1..3.
func soundnessDepth() int {
	if raceEnabled {
		return 4
	}
	return 5
}

// compiled is one built-in type under one scheme, as the engine runs it.
type compiled struct {
	typeName, scheme string
	spec             spec.Spec
	table            *depend.CompiledTable
	universe         []spec.Op
}

// builtins lists every built-in type × scheme in adt.All() and
// baseline.Schemes order.
func builtins() []compiled {
	var out []compiled
	for _, sp := range adt.All() {
		d, ok := baseline.DescriptorFor(sp.Name())
		if !ok {
			panic(sp.Name() + " has no descriptor")
		}
		for _, scheme := range baseline.Schemes {
			out = append(out, compiled{
				typeName: sp.Name(),
				scheme:   scheme,
				spec:     d.Spec,
				table:    d.Policies.Get(scheme).Table,
				universe: baseline.UniverseFor(sp.Name()),
			})
		}
	}
	return out
}

// invocations returns the distinct invocations of universe, in order.
func invocations(universe []spec.Op) []spec.Invocation {
	var out []spec.Invocation
	for _, op := range universe {
		if inv := op.Inv(); !slices.Contains(out, inv) {
			out = append(out, inv)
		}
	}
	return out
}

// soundness runs the soundness search once per test binary; the histories
// it counts are the concurrency table.
var soundness = sync.OnceValue(func() map[string]Result {
	out := make(map[string]Result)
	for _, c := range builtins() {
		cfg := Config{
			Spec:        c.spec,
			Conflict:    c.table,
			Invocations: invocations(c.universe),
			Txs:         2,
			Depth:       soundnessDepth(),
			MaxTS:       3,
		}
		out[c.typeName+" "+c.scheme] = Run(cfg, CheckOnline(c.spec))
	}
	return out
})

func TestTheorem16Soundness(t *testing.T) {
	t.Parallel()
	results := soundness()
	for _, c := range builtins() {
		res := results[c.typeName+" "+c.scheme]
		if res.Err != nil {
			t.Errorf("%s %s: violation after %d histories: %v\n%s", c.typeName, c.scheme, res.Histories, res.Err, res.Violation)
		}
		if res.Histories < 500 {
			t.Errorf("%s %s: explored only %d histories; exploration looks truncated", c.typeName, c.scheme, res.Histories)
		}
	}
}

// TestDefinition3 checks each type's distinct tables once: Definition 3
// reads a table only on the universe, so two schemes with the same ground
// pairs (Hybrid and Commutativity on four types) have one answer.
func TestDefinition3(t *testing.T) {
	t.Parallel()
	checked := make(map[string][]*depend.PairSet)
	for _, c := range builtins() {
		ground := depend.GroundConflict(c.table, c.universe)
		if slices.ContainsFunc(checked[c.typeName], ground.Equal) {
			continue
		}
		checked[c.typeName] = append(checked[c.typeName], ground)
		if cx := depend.IsConflictDependency(c.spec, c.table, c.universe, 3, 3); cx != nil {
			t.Errorf("%s %s is not a dependency relation: %s", c.typeName, c.scheme, cx)
		}
	}
}

func TestTheorem17Necessity(t *testing.T) {
	t.Parallel()
	pairs := 0
	for _, c := range builtins() {
		if c.scheme != "hybrid" {
			continue
		}
		for _, p := range unorderedPairs(depend.GroundConflict(c.table, c.universe)) {
			pairs++
			a, b := p[0], p[1]
			weakened := depend.ConflictFunc(fmt.Sprintf("%s \\ {%s, %s}", c.table, a, b), func(x, y spec.Op) bool {
				return (x != a || y != b) && (x != b || y != a) && c.table.Conflicts(x, y)
			})
			cx := depend.IsConflictDependency(c.spec, weakened, c.universe, 3, 3)
			if cx == nil {
				t.Errorf("%s: {%s, %s} is removable: the table without it is still a dependency relation", c.typeName, a, b)
				continue
			}
			h, err := replay(c.spec, weakened, cx)
			if err != nil {
				t.Errorf("%s without {%s, %s}: LOCK refused the schedule of %s: %v", c.typeName, a, b, cx, err)
				continue
			}
			if ok, err := histories.HybridAtomic(h, histories.SpecMap{"X": c.spec}); err != nil || ok {
				t.Errorf("%s without {%s, %s}: the schedule of %s is hybrid atomic (%v, %v)\n%s", c.typeName, a, b, cx, ok, err, h)
			}
		}
	}
	if pairs == 0 {
		t.Fatal("no Hybrid table has a conflicting pair")
	}
	t.Logf("%d pairs, each necessary", pairs)
}

// unorderedPairs returns one orientation of each pair of s, in s's order.
func unorderedPairs(s *depend.PairSet) []depend.OpPair {
	var out []depend.OpPair
	for _, p := range s.Pairs() {
		if !slices.Contains(out, depend.OpPair{p[1], p[0]}) {
			out = append(out, p)
		}
	}
	return out
}

// replay runs Theorem 17's construction of a Definition 3 counterexample
// (h, p, k) through LOCK: P runs h and commits at 1; Q runs p; R, whose
// operations do not conflict with p, runs k; Q commits at 2 and R at 3.
// The serial order is then h•p•k, which is illegal.
func replay(sp spec.Spec, conflict depend.Conflict, cx *depend.Counterexample) (histories.History, error) {
	m := lockmachine.New("X", sp, conflict)
	step := func(tx histories.TxID, op spec.Op) error {
		if err := m.Invoke(tx, op.Inv()); err != nil {
			return err
		}
		if ok, err := m.RespondWith(tx, op.Res); err != nil || !ok {
			return fmt.Errorf("%s not granted %s (%v)", tx, op, err)
		}
		return nil
	}
	for _, op := range cx.H {
		if err := step("P", op); err != nil {
			return nil, err
		}
	}
	if err := m.Commit("P", 1); err != nil {
		return nil, err
	}
	if err := step("Q", cx.P); err != nil {
		return nil, err
	}
	for _, op := range cx.K {
		if err := step("R", op); err != nil {
			return nil, err
		}
	}
	if err := m.Commit("Q", 2); err != nil {
		return nil, err
	}
	if err := m.Commit("R", 3); err != nil {
		return nil, err
	}
	return m.History(), nil
}

// concurrencyFile holds the histories each table admits at the soundness
// bounds, one "type scheme histories" line per built-in × scheme, sorted.
const concurrencyFile = "concurrency.txt"

func TestConcurrencyTable(t *testing.T) {
	t.Parallel()
	results := soundness()
	count := func(typeName, scheme string) int { return results[typeName+" "+scheme].Histories }

	ground := make(map[string]*depend.PairSet)
	var lines []string
	for _, c := range builtins() {
		ground[c.typeName+" "+c.scheme] = depend.GroundConflict(c.table, c.universe)
		lines = append(lines, fmt.Sprintf("%s %s %d", c.typeName, c.scheme, count(c.typeName, c.scheme)))
	}
	slices.Sort(lines)

	// Fewer conflicts admit more histories: a table inside another admits
	// at least as many, more when it has fewer pairs, as many when it has
	// the same pairs.  Hybrid lies inside Commutativity except on Queue,
	// whose Tables II and III are incomparable, and both lie strictly
	// inside ReadWrite.
	for _, sp := range adt.All() {
		name := sp.Name()
		hy, co, rw := ground[name+" hybrid"], ground[name+" commutativity"], ground[name+" readwrite"]
		if name == "Queue" {
			if hy.SubsetOf(co) || co.SubsetOf(hy) {
				t.Errorf("Queue: Tables II and III should be incomparable")
			}
		} else {
			containment(t, name, "hybrid", "commutativity", hy, co, count)
		}
		containment(t, name, "commutativity", "readwrite", co, rw, count)
		containment(t, name, "hybrid", "readwrite", hy, rw, count)
		if hy.Equal(rw) {
			t.Errorf("%s: the Hybrid and ReadWrite tables have the same pairs", name)
		}
	}

	if raceEnabled {
		t.Skipf("%s holds the counts at depth 5; this run searched depth %d", concurrencyFile, soundnessDepth())
	}
	got := strings.Join(lines, "\n") + "\n"
	want, err := os.ReadFile(concurrencyFile)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("the histories each table admits differ from %s:\n%s\n"+
			"If the change is intended, write the lines above to %s and say why in CHANGES.md.",
			concurrencyFile, got, concurrencyFile)
	}
}

// containment checks that small ⊆ big, and that the counts follow: small's
// count is at least big's, greater when small has fewer pairs, equal when
// they have the same.
func containment(t *testing.T, typeName, small, big string, s, b *depend.PairSet, count func(string, string) int) {
	t.Helper()
	if !s.SubsetOf(b) {
		t.Errorf("%s: the %s table is not inside the %s table:\n%s", typeName, small, big, s.Diff(b).Dump())
		return
	}
	cs, cb := count(typeName, small), count(typeName, big)
	switch {
	case s.Len() == b.Len() && cs != cb:
		t.Errorf("%s: %s and %s have the same %d pairs but admit %d and %d histories", typeName, small, big, s.Len(), cs, cb)
	case s.Len() < b.Len() && cs <= cb:
		t.Errorf("%s: %s has %d pairs to %s's %d but admits %d histories to its %d", typeName, small, s.Len(), big, b.Len(), cs, cb)
	}
}
