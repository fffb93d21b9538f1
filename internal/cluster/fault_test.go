package cluster

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"hybridcc/internal/adt"
	"hybridcc/internal/commitproto"
	"hybridcc/internal/core"
	"hybridcc/internal/histories"
	"hybridcc/internal/verify"
)

// faultInjector scripts per-shard network faults into a cluster's commit
// protocol through Options.WrapTransport.  Each enqueued script applies to
// the target shard's transport for exactly one commit round; rounds with
// no pending script run fault-free.
type faultInjector struct {
	mu      sync.Mutex
	pending map[int][]scriptedFault
}

type scriptedFault struct {
	class   commitproto.MsgClass
	actions []commitproto.FaultAction
}

func newFaultInjector() *faultInjector {
	return &faultInjector{pending: make(map[int][]scriptedFault)}
}

func (f *faultInjector) enqueue(shard int, class commitproto.MsgClass, actions ...commitproto.FaultAction) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.pending[shard] = append(f.pending[shard], scriptedFault{class, actions})
}

func (f *faultInjector) wrap(shard int, tr commitproto.Transport) commitproto.Transport {
	f.mu.Lock()
	defer f.mu.Unlock()
	q := f.pending[shard]
	if len(q) == 0 {
		return tr
	}
	f.pending[shard] = q[1:]
	ft := commitproto.NewFaultTransport()
	ft.Script(q[0].class, q[0].actions...)
	return ft.Wrap(tr)
}

// TestClusterScriptedFaults drives cross-shard transfers through every
// deterministic single-message fault and checks the global invariants
// after each: a lost protocol message may abort a transaction, but it can
// never tear one, leak a lock, or lose money.
func TestClusterScriptedFaults(t *testing.T) {
	rec := verify.NewRecorder()
	inj := newFaultInjector()
	c, err := New(Options{Shards: 2, LockWait: time.Second, Sink: rec, WrapTransport: inj.wrap})
	if err != nil {
		t.Fatal(err)
	}
	accA := newAccountOn(c, 0, "accA")
	accB := newAccountOn(c, 1, "accB")
	fund(t, c, accA, 100)
	fund(t, c, accB, 100)

	transfer := func() error {
		tx := c.Begin()
		brA, err := tx.Branch(accA)
		if err != nil {
			_ = tx.Abort()
			return err
		}
		if res, err := accA.Call(brA, adt.DebitInv(10)); err != nil || res != adt.ResOk {
			_ = tx.Abort()
			if err == nil {
				err = errors.New("overdraft")
			}
			return err
		}
		brB, err := tx.Branch(accB)
		if err != nil {
			_ = tx.Abort()
			return err
		}
		if _, err := accB.Call(brB, adt.CreditInv(10)); err != nil {
			_ = tx.Abort()
			return err
		}
		if err := tx.Commit(); err != nil {
			_ = tx.Abort()
			return err
		}
		return nil
	}
	balance := func(obj *core.Object) int64 {
		return adt.AccountBalance(obj.CommittedState())
	}

	// A dropped prepare request: the shard looks unreachable, the round
	// aborts, nothing moved.
	inj.enqueue(0, commitproto.ClassPrepare, commitproto.DropRequest)
	if err := transfer(); !errors.Is(err, ErrCommitAborted) {
		t.Fatalf("dropped prepare: %v, want ErrCommitAborted", err)
	}
	if a, b := balance(accA), balance(accB); a != 100 || b != 100 {
		t.Fatalf("aborted round moved money: %d/%d", a, b)
	}

	// A dropped prepare reply: shard 1 prepared and voted yes, but the
	// coordinator never heard it.  The round aborts AND the prepared
	// branch must be released — the immediate retry proves no lock leaked.
	inj.enqueue(1, commitproto.ClassPrepare, commitproto.DropReply)
	if err := transfer(); !errors.Is(err, ErrCommitAborted) {
		t.Fatalf("dropped prepare reply: %v, want ErrCommitAborted", err)
	}
	if err := transfer(); err != nil {
		t.Fatalf("transfer after dropped-reply abort: %v (leaked lock?)", err)
	}

	// A duplicated commit decision: receiver idempotence, one commit at
	// one timestamp.
	inj.enqueue(0, commitproto.ClassCommit, commitproto.Dup)
	if err := transfer(); err != nil {
		t.Fatalf("duplicated commit decision: %v", err)
	}

	// A dropped commit delivery: the decision is reached — delivery
	// failures cannot reverse it — and the decision re-apply path lands
	// the missing leg.  The caller sees a clean commit.
	inj.enqueue(1, commitproto.ClassCommit, commitproto.DropRequest)
	if err := transfer(); err != nil {
		t.Fatalf("dropped commit delivery: %v", err)
	}

	if a, b := balance(accA), balance(accB); a != 70 || b != 130 || a+b != 200 {
		t.Fatalf("final balances %d/%d, want 70/130", a, b)
	}

	specs := histories.SpecMap{"accA": adt.NewAccount(), "accB": adt.NewAccount()}
	isReadOnly := func(id histories.TxID) bool { return strings.HasPrefix(string(id), "R") }
	if err := verify.CheckGeneralizedHybridAtomic(rec.History(), specs, isReadOnly); err != nil {
		t.Fatalf("history not hybrid atomic under faults: %v", err)
	}
}
