package baseline

import (
	"testing"

	"hybridcc/internal/adt"
	"hybridcc/internal/depend"
	"hybridcc/internal/spec"
)

// TestFileCommutativityDerivation verifies the closed-form File
// commutativity conflicts against the mechanical derivation.
func TestFileCommutativityDerivation(t *testing.T) {
	sp := adt.NewFile()
	universe := adt.FileUniverse([]int64{1, 2})
	invs := adt.FileInvocations([]int64{1, 2})
	derived := depend.FailureToCommute(sp, universe, invs, 2, 2)
	want := depend.GroundConflict(FileCommutativity(), universe)
	if !derived.Equal(want) {
		t.Fatalf("file commutativity mismatch\nextra:\n%s\nmissing:\n%s",
			derived.Diff(want).Dump(), want.Diff(derived).Dump())
	}
}

// TestSemiqueueCommutativityDerivation verifies that Semiqueue
// commutativity conflicts coincide with the hybrid Table IV closure.
func TestSemiqueueCommutativityDerivation(t *testing.T) {
	sp := adt.NewSemiqueue()
	universe := adt.SemiqueueUniverse([]int64{1, 2})
	invs := adt.SemiqueueInvocations([]int64{1, 2})
	derived := depend.FailureToCommute(sp, universe, invs, 3, 2)
	want := depend.GroundConflict(SemiqueueCommutativity(), universe)
	if !derived.Equal(want) {
		t.Fatalf("semiqueue commutativity mismatch\nextra:\n%s\nmissing:\n%s",
			derived.Diff(want).Dump(), want.Diff(derived).Dump())
	}
}

// TestCounterCommutativityDerivation verifies the Counter closed form.
func TestCounterCommutativityDerivation(t *testing.T) {
	sp := adt.NewCounter()
	universe := adt.CounterUniverse([]int64{1, 2}, []int64{0, 1, 2, 3, 4})
	invs := adt.CounterInvocations([]int64{1, 2})
	derived := depend.FailureToCommute(sp, universe, invs, 2, 2)
	want := depend.GroundConflict(CounterCommutativity(), universe)
	if !derived.Equal(want) {
		t.Fatalf("counter commutativity mismatch\nextra:\n%s\nmissing:\n%s",
			derived.Diff(want).Dump(), want.Diff(derived).Dump())
	}
}

// TestSetCommutativityDerivation verifies that Set commutativity coincides
// with the hybrid closure (responses already make Set conflicts minimal).
func TestSetCommutativityDerivation(t *testing.T) {
	sp := adt.NewSet()
	universe := adt.SetUniverse([]int64{1, 2})
	invs := adt.SetInvocations([]int64{1, 2})
	derived := depend.FailureToCommute(sp, universe, invs, 2, 2)
	want := depend.GroundConflict(Commutativity("Set"), universe)
	if !derived.Equal(want) {
		t.Fatalf("set commutativity mismatch\nextra:\n%s\nmissing:\n%s",
			derived.Diff(want).Dump(), want.Diff(derived).Dump())
	}
}

// TestDirectoryCommutativityDerivation verifies that Directory
// commutativity coincides with the hybrid closure.
func TestDirectoryCommutativityDerivation(t *testing.T) {
	sp := adt.NewDirectory()
	universe := adt.DirectoryUniverse([]string{"a", "b"}, []int64{1, 2})
	invs := adt.DirectoryInvocations([]string{"a", "b"}, []int64{1, 2})
	derived := depend.FailureToCommute(sp, universe, invs, 2, 2)
	want := depend.GroundConflict(Commutativity("Directory"), universe)
	if !derived.Equal(want) {
		t.Fatalf("directory commutativity mismatch\nextra:\n%s\nmissing:\n%s",
			derived.Diff(want).Dump(), want.Diff(derived).Dump())
	}
}

// TestEverySchemeIsADependencyRelation mechanically verifies the
// correctness condition (Theorem 11/17) for every scheme × type the
// experiments run: each conflict relation must pass Definition 3.
func TestEverySchemeIsADependencyRelation(t *testing.T) {
	universes := map[string][]spec.Op{
		"File":      adt.FileUniverse([]int64{1, 2}),
		"Queue":     adt.QueueUniverse([]int64{1, 2}),
		"Semiqueue": adt.SemiqueueUniverse([]int64{1, 2}),
		"Account":   adt.AccountUniverse([]int64{1, 2}, []int64{2}),
		"Counter":   adt.CounterUniverse([]int64{1, 2}, []int64{0, 1, 2, 3}),
		"Set":       adt.SetUniverse([]int64{1, 2}),
		"Directory": adt.DirectoryUniverse([]string{"a"}, []int64{1, 2}),
	}
	for typeName, universe := range universes {
		sp := SpecFor(typeName)
		if sp == nil {
			t.Fatalf("no spec for %q", typeName)
		}
		for _, scheme := range Schemes {
			c := ConflictFor(scheme, typeName)
			if c == nil {
				t.Fatalf("no conflict for %s/%s", scheme, typeName)
			}
			if cx := depend.IsConflictDependency(sp, c, universe, 2, 2); cx != nil {
				t.Errorf("%s/%s is not a dependency relation: %s", scheme, typeName, cx)
			}
		}
	}
}

// TestConcurrencyOrdering verifies the concurrency hierarchy the paper
// claims: hybrid conflicts ⊆ commutativity conflicts ⊆ read/write
// conflicts for every type except Queue, where hybrid (Table II) and
// commutativity (Table III) are incomparable.
func TestConcurrencyOrdering(t *testing.T) {
	universes := map[string][]spec.Op{
		"File":      adt.FileUniverse([]int64{1, 2}),
		"Semiqueue": adt.SemiqueueUniverse([]int64{1, 2}),
		"Account":   adt.AccountUniverse([]int64{1, 2, 3}, []int64{2}),
		"Counter":   adt.CounterUniverse([]int64{1, 2}, []int64{0, 1, 2, 3}),
		"Set":       adt.SetUniverse([]int64{1, 2}),
	}
	for typeName, universe := range universes {
		hybrid := depend.GroundConflict(ConflictFor("hybrid", typeName), universe)
		commut := depend.GroundConflict(ConflictFor("commutativity", typeName), universe)
		rw := depend.GroundConflict(ConflictFor("readwrite", typeName), universe)
		if !hybrid.SubsetOf(commut) {
			t.Errorf("%s: hybrid conflicts must be ⊆ commutativity conflicts; extra:\n%s",
				typeName, hybrid.Diff(commut).Dump())
		}
		if !commut.SubsetOf(rw) {
			t.Errorf("%s: commutativity conflicts must be ⊆ read/write conflicts; extra:\n%s",
				typeName, commut.Diff(rw).Dump())
		}
	}
	// Queue: incomparable.
	universe := adt.QueueUniverse([]int64{1, 2})
	hybrid := depend.GroundConflict(ConflictFor("hybrid", "Queue"), universe)
	commut := depend.GroundConflict(ConflictFor("commutativity", "Queue"), universe)
	if hybrid.SubsetOf(commut) || commut.SubsetOf(hybrid) {
		t.Error("Queue hybrid (Table II) and commutativity (Table III) must be incomparable")
	}
}

// TestStrictGapsDriveTheBenchmarks pins the specific extra conflicts the
// throughput experiments exploit.
func TestStrictGapsDriveTheBenchmarks(t *testing.T) {
	// B1: commutativity serializes concurrent enqueues, hybrid does not.
	if ConflictFor("hybrid", "Queue").Conflicts(adt.Enq(1), adt.Enq(2)) {
		t.Error("hybrid queue must allow concurrent enqueues")
	}
	if !ConflictFor("commutativity", "Queue").Conflicts(adt.Enq(1), adt.Enq(2)) {
		t.Error("commutativity queue must serialize distinct enqueues")
	}
	// B2: hybrid file writers never conflict (Thomas write rule); both
	// baselines serialize them.
	if ConflictFor("hybrid", "File").Conflicts(adt.FileWrite(1), adt.FileWrite(2)) {
		t.Error("hybrid file writes must not conflict")
	}
	if !ConflictFor("commutativity", "File").Conflicts(adt.FileWrite(1), adt.FileWrite(2)) {
		t.Error("commutativity file writes must conflict")
	}
	if !ConflictFor("readwrite", "File").Conflicts(adt.FileWrite(1), adt.FileWrite(2)) {
		t.Error("read/write file writes must conflict")
	}
	// B3: commutativity makes Post conflict with Credit and successful
	// Debit; hybrid does not.
	hyb, com := ConflictFor("hybrid", "Account"), ConflictFor("commutativity", "Account")
	if hyb.Conflicts(adt.Post(2), adt.Credit(5)) || hyb.Conflicts(adt.Post(2), adt.Debit(5)) {
		t.Error("hybrid account must allow Post concurrent with Credit and Debit/Ok")
	}
	if !com.Conflicts(adt.Post(2), adt.Credit(5)) || !com.Conflicts(adt.Post(2), adt.Debit(5)) {
		t.Error("commutativity account must serialize Post against Credit and Debit/Ok")
	}
}

func TestSpecFor(t *testing.T) {
	for _, name := range []string{"File", "Queue", "Semiqueue", "Account", "Counter", "Set", "Directory"} {
		if sp := SpecFor(name); sp == nil || sp.Name() != name {
			t.Errorf("SpecFor(%q) = %v", name, sp)
		}
	}
	if SpecFor("Nope") != nil {
		t.Error("unknown type must return nil")
	}
	if ConflictFor("hybrid", "Nope") != nil || ConflictFor("nope", "File") != nil {
		t.Error("unknown scheme/type must return nil")
	}
}

// TestReadWriteReaders verifies read-read concurrency under the classical
// scheme where pure readers exist.
func TestReadWriteReaders(t *testing.T) {
	rw := ReadWrite("File")
	if rw.Conflicts(adt.FileRead(1), adt.FileRead(2)) {
		t.Error("two reads must not conflict under read/write locking")
	}
	if !rw.Conflicts(adt.FileRead(1), adt.FileWrite(1)) {
		t.Error("read and write must conflict even with equal values")
	}
	rwDir := ReadWrite("Directory")
	if rwDir.Conflicts(adt.DirLookup("a", 1, true), adt.DirLookup("b", 2, true)) {
		t.Error("two lookups must not conflict")
	}
	if !rwDir.Conflicts(adt.DirLookup("a", 1, true), adt.DirBind("b", 1, true)) {
		t.Error("lookup must conflict with bind under untyped locking (even on other keys)")
	}
	unknown := ReadWrite("Mystery")
	if !unknown.Conflicts(adt.FileRead(1), adt.FileRead(1)) {
		t.Error("unknown types must default to total conflict")
	}
}

// TestConstantResponsesMatchResponses walks every state of each built-in
// type reachable from its declared universe in three steps and checks that
// every constant response a type claims is the one response Responses
// offers there, and that an argument outside an operation's domain claims
// none.  Set.Insert and Directory.Bind answer by state, so claim nothing.
func TestConstantResponsesMatchResponses(t *testing.T) {
	outside := []spec.Invocation{
		adt.CreditInv(-1), adt.PostInv(0), adt.IncInv(-1),
		{Name: "Credit", Arg: "x"},
	}
	claimed := map[string]int{}
	for _, sp := range adt.All() {
		name := sp.Name()
		universe := UniverseFor(name)
		cs, ok := sp.(spec.ConstantSpec)
		if !ok {
			continue
		}
		invs := append([]spec.Invocation(nil), outside...)
		for _, op := range universe {
			invs = append(invs, op.Inv())
		}
		frontier := []spec.State{sp.Init()}
		for depth := 0; depth <= 3; depth++ {
			var next []spec.State
			for _, st := range frontier {
				for _, inv := range invs {
					res, ok := cs.ConstantResponse(inv)
					if !ok {
						continue
					}
					claimed[name+"."+inv.Name]++
					if got := sp.Responses(st, inv); len(got) != 1 || got[0] != res {
						t.Errorf("%s: ConstantResponse(%s) = %q, Responses in %v = %q", name, inv, res, st, got)
					}
				}
				for _, op := range universe {
					if n, ok := sp.Step(st, op); ok {
						next = append(next, n)
					}
				}
			}
			frontier = next
		}
	}
	for _, inv := range outside {
		if _, ok := adt.NewAccount().ConstantResponse(inv); ok {
			t.Errorf("Account claims a constant response to %s", inv)
		}
		if _, ok := adt.NewCounter().ConstantResponse(inv); ok {
			t.Errorf("Counter claims a constant response to %s", inv)
		}
	}
	want := []string{"Account.Credit", "Account.Post", "Counter.Inc", "Queue.Enq", "Semiqueue.Ins", "File.Write"}
	for _, k := range want {
		if claimed[k] == 0 {
			t.Errorf("%s claimed no constant response", k)
		}
	}
	if len(claimed) != len(want) {
		t.Errorf("constant responses claimed by %v, want exactly %v (Set.Insert and Directory.Bind depend on the state)", claimed, want)
	}
}
