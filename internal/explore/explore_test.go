package explore

import (
	"testing"

	"hybridcc/internal/adt"
	"hybridcc/internal/baseline"
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

// TestExhaustiveAccountHybrid searches three transactions over Account's
// compiled Hybrid table, starting from a balance of 2: two debits that
// together overdraw it are then six steps apart, where from a zero balance
// the credit that funds them makes the schedule nine steps long, out of
// reach of the two-transaction soundness search.  With Debit(1)/Ok ×
// Debit(2)/Ok removed from the table, LOCK grants both debits and this
// search finds the committed history that is not hybrid atomic.  Under
// -race it searches two transactions, which still reach that history.
func TestExhaustiveAccountHybrid(t *testing.T) {
	t.Parallel()
	d, _ := baseline.DescriptorFor("Account")
	credit := spec.Op{Name: "Credit", Arg: "2", Res: adt.ResOk}
	start, _ := d.Spec.Step(d.Spec.Init(), credit)
	txs := 3
	if raceEnabled {
		txs = 2
	}
	cfg := Config{
		Spec:        funded{d.Spec, start},
		Conflict:    d.Policies.Get("hybrid").Table,
		Invocations: []spec.Invocation{adt.CreditInv(2), adt.DebitInv(1), adt.DebitInv(2)},
		Txs:         txs,
		Depth:       6,
		MaxTS:       4,
	}
	res := Run(cfg, CheckHybrid(cfg.Spec))
	if res.Err != nil {
		t.Fatalf("violation after %d histories: %v\n%s", res.Histories, res.Err, res.Violation)
	}
	if res.Histories < 10000 {
		t.Fatalf("explored only %d histories; exploration looks truncated", res.Histories)
	}
}

// funded is a spec that starts in a given state.
type funded struct {
	spec.Spec
	start spec.State
}

func (f funded) Init() spec.State { return f.start }
