package explore

import (
	"testing"

	"hybridcc/internal/adt"
	"hybridcc/internal/depend"
	"hybridcc/internal/spec"
)

// TestExhaustiveFindsNecessityViolation removes a required conflict and
// asserts the exhaustive search discovers a non-hybrid-atomic accepted
// history — Theorem 17 established by search rather than construction.
func TestExhaustiveFindsNecessityViolation(t *testing.T) {
	weak := depend.RelationFunc("weak", func(q, p spec.Op) bool {
		return q.Name == "Deq" && p.Name == "Deq" && q.Res == p.Res
	})
	cfg := Config{
		Spec:        adt.NewQueue(),
		Conflict:    depend.SymmetricClosure(weak),
		Invocations: []spec.Invocation{adt.EnqInv(1), adt.EnqInv(2), adt.DeqInv()},
		Txs:         3,
		Depth:       8,
		MaxTS:       4,
	}
	res := Run(cfg, CheckHybrid(cfg.Spec))
	if res.Err == nil {
		t.Fatalf("no violation found in %d histories; the weakened relation should break hybrid atomicity", res.Histories)
	}
	t.Logf("found violation after %d histories:\n%s", res.Histories, res.Violation)
}

func TestActionString(t *testing.T) {
	for _, a := range []action{
		{kind: 0, tx: "A", inv: adt.EnqInv(1)},
		{kind: 1, tx: "A", res: "Ok"},
		{kind: 2, tx: "A", ts: 3},
		{kind: 3, tx: "A"},
	} {
		if a.String() == "" {
			t.Error("action must render")
		}
	}
}
