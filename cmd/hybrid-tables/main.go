// Command hybrid-tables re-derives the relation tables of Herlihy & Weihl
// from the serial specifications and prints them next to the paper's
// closed forms: Tables I–V via the invalidated-by derivation (Definitions
// 8–9), Table VI via forward commutativity (Definition 26).
//
// Usage:
//
//	hybrid-tables [-grids] [-all]
//
// With -grids the concrete boolean conflict grids over the small
// derivation universes are printed as well.  With -all the three
// precompiled relations (hybrid, commutativity, read/write) of every
// built-in type are printed side by side in one grid per type — each cell
// shows which schemes conflict on that operation pair, making the
// containment hybrid ⊆ commutativity ⊆ read/write visible at a glance.
package main

import (
	"flag"
	"fmt"
	"os"

	"hybridcc/internal/adt"
	"hybridcc/internal/baseline"
	"hybridcc/internal/depend"
	"hybridcc/internal/spec"
)

func main() {
	grids := flag.Bool("grids", false, "also print concrete conflict grids over the derivation universe")
	all := flag.Bool("all", false, "print every precompiled relation side by side (one combined grid per built-in type)")
	flag.Parse()

	if *all {
		if !allGrids() {
			os.Exit(1)
		}
		return
	}

	fmt.Println("Herlihy & Weihl, Hybrid Concurrency Control for Abstract Data Types")
	fmt.Println("Tables I–VI, re-derived from the serial specifications")
	fmt.Println()

	ok := true
	ok = deriveTable(depend.TableI(), adt.NewFile(), adt.FileUniverse([]int64{1, 2}),
		depend.FileDependency(), 2, 2, *grids) && ok
	ok = deriveTable(depend.TableII(), adt.NewQueue(), adt.QueueUniverse([]int64{1, 2}),
		depend.QueueDependencyII(), 3, 2, *grids) && ok
	ok = minimalTable(depend.TableIII(), adt.NewQueue(), adt.QueueUniverse([]int64{1, 2}),
		depend.QueueDependencyIII(), 3, 3, *grids) && ok
	ok = deriveTable(depend.TableIV(), adt.NewSemiqueue(), adt.SemiqueueUniverse([]int64{1, 2}),
		depend.SemiqueueDependency(), 3, 2, *grids) && ok
	ok = deriveTable(depend.TableV(), adt.NewAccount(), adt.AccountUniverse([]int64{1, 2, 3}, []int64{2}),
		depend.AccountDependency(), 2, 1, *grids) && ok
	ok = commuteTable(*grids) && ok

	fmt.Println("Additional derived relations (same machinery, types from the paper's introduction):")
	for _, extra := range []struct {
		sp       spec.Spec
		universe []spec.Op
		rel      depend.Relation
	}{
		{adt.NewCounter(), adt.CounterUniverse([]int64{1, 2}, []int64{0, 1, 2, 3, 4}), depend.CounterDependency()},
		{adt.NewSet(), adt.SetUniverse([]int64{1, 2}), depend.SetDependency()},
		{adt.NewDirectory(), adt.DirectoryUniverse([]string{"a", "b"}, []int64{1, 2}), depend.DirectoryDependency()},
	} {
		derived := depend.InvalidatedBy(extra.sp, extra.universe, 2, 1)
		match := derived.Equal(depend.Ground(extra.rel, extra.universe))
		fmt.Printf("  %-10s invalidated-by: %3d ground pairs, matches closed form: %v\n",
			extra.sp.Name(), derived.Len(), match)
		ok = ok && match
	}
	fmt.Println()

	if !ok {
		fmt.Println("RESULT: some derivations disagree with the paper — see above")
		os.Exit(1)
	}
	fmt.Println("RESULT: every derivation agrees with the paper's tables")
}

// allGrids prints, for every built-in type, one grid over its declared
// universe whose cells name the schemes under which the operation pair
// conflicts: H = hybrid, C = commutativity, R = read/write, "..." = none.
// Because the runtime can switch an object between these relations at
// runtime, this is the side-by-side view of exactly what a switch changes.
//
// It also reports, per type, whether the pairwise containment
// hybrid ⊆ commutativity ⊆ read/write holds.  Everything sits inside
// read/write, but hybrid and commutativity are incomparable in general —
// the paper's point, visible here on Queue: the dependency relation
// orders a Deq after the Enqs it may observe (Table II), while forward
// commutativity lets Enq and a successful Deq run concurrently on a
// nonempty queue.  So the three schemes form no subset chain, and no
// order of them ranks concurrency for every type; correctness never
// depends on the choice (every scheme is independently sound on this
// runtime).  The run only fails if
// some scheme escapes the read/write envelope, which would mean a
// precompiled relation is broken.
func allGrids() bool {
	fmt.Println("Precompiled conflict relations, all schemes side by side")
	fmt.Println("cell letters: H = hybrid, C = commutativity, R = read/write conflict")
	fmt.Println()
	ok := true
	for _, sp := range adt.All() {
		name := sp.Name()
		universe := baseline.UniverseFor(name)
		rels := make([]depend.Conflict, len(baseline.Schemes))
		for i, scheme := range baseline.Schemes {
			rels[i] = baseline.ConflictFor(scheme, name)
		}
		fmt.Printf("%s (%d ops)\n", name, len(universe))
		width := 0
		for _, op := range universe {
			if n := len(op.String()); n > width {
				width = n
			}
		}
		fmt.Printf("%-*s", width+4, "")
		for j := range universe {
			fmt.Printf("%3d ", j)
		}
		fmt.Println()
		hInC, cInR := true, true
		for i, a := range universe {
			fmt.Printf("%-*s", width+4, fmt.Sprintf("%2d %s", i, a))
			for _, b := range universe {
				cell := []byte("...")
				for k, rel := range rels {
					if rel.Conflicts(a, b) {
						cell[k] = "HCR"[k]
					}
				}
				if cell[0] == 'H' && cell[1] == '.' {
					hInC = false
				}
				if (cell[0] == 'H' || cell[1] == 'C') && cell[2] == '.' {
					cInR = false
					ok = false
				}
				fmt.Printf("%s ", cell)
			}
			fmt.Println()
		}
		switch {
		case !cInR:
			fmt.Println("containment: BROKEN — a conflict escapes the read/write envelope")
		case hInC:
			fmt.Println("containment: hybrid ⊆ commutativity ⊆ read/write")
		default:
			fmt.Println("containment: hybrid ⊆ read/write and commutativity ⊆ read/write only — hybrid and commutativity are incomparable for this type")
		}
		fmt.Println()
	}
	if !ok {
		fmt.Println("RESULT: a scheme conflicts outside the read/write envelope — precompiled relations are inconsistent")
		return false
	}
	fmt.Println("RESULT: every relation sits inside the read/write envelope")
	return true
}

// deriveTable re-derives a table via invalidated-by and reports agreement.
func deriveTable(t depend.PaperTable, sp spec.Spec, universe []spec.Op, rel depend.Relation, h1, h2 int, grids bool) bool {
	fmt.Print(t.Render())
	derived := depend.InvalidatedBy(sp, universe, h1, h2)
	want := depend.Ground(rel, universe)
	match := derived.Equal(want)
	fmt.Printf("derived invalidated-by over %d ops: %d pairs; matches table: %v\n",
		len(universe), derived.Len(), match)
	if !match {
		fmt.Printf("extra:\n%smissing:\n%s", derived.Diff(want).Dump(), want.Diff(derived).Dump())
	}
	if cx := depend.IsDependency(sp, rel, universe, h1, h2+1); cx != nil {
		fmt.Printf("WARNING: table fails Definition 3: %s\n", cx)
		match = false
	}
	if grids {
		fmt.Print(depend.RenderGrid("conflicts = sym(table)", depend.SymmetricClosure(rel), universe))
	}
	fmt.Println()
	return match
}

// minimalTable validates a table that is not the invalidated-by relation
// (Queue's second minimum): it must pass Definition 3 and be minimal.
func minimalTable(t depend.PaperTable, sp spec.Spec, universe []spec.Op, rel depend.Relation, hLen, kLen int, grids bool) bool {
	fmt.Print(t.Render())
	ok := true
	if cx := depend.IsDependency(sp, rel, universe, hLen, kLen); cx != nil {
		fmt.Printf("FAIL: not a dependency relation: %s\n", cx)
		ok = false
	} else {
		fmt.Println("dependency relation: yes (Definition 3, bounded exhaustive)")
	}
	removable := depend.RemovablePairs(sp, rel, universe, hLen, kLen)
	fmt.Printf("minimal: %v (removable pairs: %d)\n", len(removable) == 0, len(removable))
	ok = ok && len(removable) == 0
	if grids {
		fmt.Print(depend.RenderGrid("conflicts = sym(table)", depend.SymmetricClosure(rel), universe))
	}
	fmt.Println()
	return ok
}

// commuteTable re-derives Table VI via forward commutativity.
func commuteTable(grids bool) bool {
	t := depend.TableVI()
	fmt.Print(t.Render())
	sp := adt.NewAccount()
	universe := adt.AccountUniverse([]int64{1, 2, 3}, []int64{2})
	invs := adt.AccountInvocations([]int64{1, 2, 3}, []int64{2})
	derived := depend.FailureToCommute(sp, universe, invs, 2, 2)
	paper := depend.GroundConflict(depend.AccountCommutativity(), universe)
	match := derived.SubsetOf(paper)
	for _, p := range paper.Diff(derived).Pairs() {
		a, b := p[0], p[1]
		artifact := (a.Name == "Post" && b.Name == "Debit" && b.Res == adt.ResOverdraft && b.Arg == "1") ||
			(b.Name == "Post" && a.Name == "Debit" && a.Res == adt.ResOverdraft && a.Arg == "1")
		if !artifact {
			match = false
		}
	}
	fmt.Printf("derived failure-to-commute: %d ground pairs; matches table: %v\n", derived.Len(), match)
	fmt.Println("(integer-balance model: Post commutes with Debit(1)/Overdraft because a")
	fmt.Println(" balance below 1 is exactly 0; all other cells match the paper — see DESIGN.md)")
	if grids {
		fmt.Print(depend.RenderGrid("commutativity conflicts", depend.AccountCommutativity(), universe))
	}
	fmt.Println()
	return match
}
