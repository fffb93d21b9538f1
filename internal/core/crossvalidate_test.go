package core

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"hybridcc/internal/adt"
	"hybridcc/internal/baseline"
	"hybridcc/internal/depend"
	"hybridcc/internal/histories"
	"hybridcc/internal/lockmachine"
	"hybridcc/internal/spec"
	"hybridcc/internal/tstamp"
)

// TestRuntimeMatchesFormalMachine drives identical single-threaded random
// schedules through the production runtime and the formal LOCK automaton
// of Section 5 and asserts they agree on every decision: which responses
// are granted, with which values, which commit timestamps are legal, and
// what committed state results.  This pins the runtime (with its compacted
// versions and horizon folding) to the model-checked reference
// implementation — once per commit entry point, so the one commit
// procedure is checked against the machine's commit event, not against
// itself.  Objects are registered with their type's declared universe, and
// every case invokes operations over values outside it (Enq(7), Debit(5),
// ...), so the compiled path and the dynamic-dispatch fallback for
// operations without a class are both refereed by the machine, under each
// of the three schemes.
func TestRuntimeMatchesFormalMachine(t *testing.T) {
	type objectCase struct {
		name string
		sp   spec.Spec
		invs []spec.Invocation
	}
	cases := []objectCase{
		{"Queue", adt.NewQueue(),
			[]spec.Invocation{adt.EnqInv(1), adt.EnqInv(2), adt.DeqInv(), adt.EnqInv(7)}},
		{"Account", adt.NewAccount(),
			[]spec.Invocation{adt.CreditInv(3), adt.PostInv(2), adt.DebitInv(2), adt.DebitInv(5)}},
		{"Semiqueue", adt.NewSemiqueue(),
			[]spec.Invocation{adt.InsInv(1), adt.InsInv(2), adt.RemInv(), adt.InsInv(7)}},
		{"Set", adt.NewSet(),
			[]spec.Invocation{adt.SetInsertInv(1), adt.SetRemoveInv(1), adt.SetMemberInv(1), adt.SetInsertInv(2), adt.SetInsertInv(7)}},
	}
	for _, oc := range cases {
		oc := oc
		hybrid := baseline.HybridConflict(oc.name)
		for _, e := range commitEntries {
			t.Run(oc.name+"/"+e.name, func(t *testing.T) {
				for seed := int64(0); seed < 30; seed++ {
					crossValidate(t, oc.name, oc.sp, hybrid, oc.invs, seed, 0, e)
				}
			})
		}
		// The same schedules with the compiled conflict table truncated to
		// two classes: most operations then take the dynamic-dispatch
		// fallback, which must grant and deny identically.  The machine is
		// the common referee, so this cross-validates the compiled path
		// against the interface path at the runtime level.
		t.Run(oc.name+"/truncated-table", func(t *testing.T) {
			for seed := int64(0); seed < 30; seed++ {
				crossValidate(t, oc.name, oc.sp, hybrid, oc.invs, seed, 2, commitEntries[0])
			}
		})
		for _, scheme := range []string{"commutativity", "readwrite"} {
			conflict := baseline.ConflictFor(scheme, oc.name)
			t.Run(oc.name+"/"+scheme, func(t *testing.T) {
				for seed := int64(0); seed < 30; seed++ {
					crossValidate(t, oc.name, oc.sp, conflict, oc.invs, seed, 0, commitEntries[0])
				}
			})
		}
	}
}

// TestRuntimeMatchesFormalMachineReaders drives single-threaded random
// schedules of update transactions, Section 7 readers and folds through
// the runtime and the machine: the machine accepts every reader's stamp
// (unique against writers and readers alike), answers every read as the
// runtime did, and after every fold the runtime ran — at a commit or an
// abort of a transaction that held locks here, or on its own — holds the
// runtime's version.  These are the schedules internal/explore enumerates
// with readers, drawn at random at a larger size.
func TestRuntimeMatchesFormalMachineReaders(t *testing.T) {
	cases := []struct {
		name        string
		sp          spec.Spec
		invs, reads []spec.Invocation
	}{
		{"Counter", adt.NewCounter(),
			[]spec.Invocation{adt.IncInv(1), adt.IncInv(2)}, []spec.Invocation{adt.CtrReadInv()}},
		{"Set", adt.NewSet(),
			[]spec.Invocation{adt.SetInsertInv(1), adt.SetRemoveInv(1), adt.SetInsertInv(2)},
			[]spec.Invocation{adt.SetMemberInv(1), adt.SetMemberInv(2)}},
		{"File", adt.NewFile(),
			[]spec.Invocation{adt.FileWriteInv(1), adt.FileWriteInv(2)}, []spec.Invocation{adt.FileReadInv()}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for seed := int64(0); seed < 40; seed++ {
				crossValidateReaders(t, c.name, c.sp, c.invs, c.reads, seed)
			}
		})
	}
}

func crossValidateReaders(t *testing.T, typeName string, sp spec.Spec, invs, reads []spec.Invocation, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sys := NewSystem(Options{LockWait: time.Millisecond})
	conflict := baseline.HybridConflict(typeName)
	obj := sys.NewObjectSeeded("X", sp, conflict, baseline.UniverseFor(typeName))
	machine := lockmachine.New("X", sp, conflict)
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d: "+format, append([]any{seed}, args...)...)
	}
	// folded checks the machine's fold against the one the runtime just ran.
	folded := func() {
		t.Helper()
		machine.Fold()
		want, ok := spec.Replay(sp, machine.Version())
		obj.mu.Lock()
		got := obj.version
		obj.mu.Unlock()
		if !ok || !sp.Equal(want, got) {
			fail("runtime version %v, machine folded %s", got, spec.SeqString(machine.Version()))
		}
	}

	writers := make([]*Tx, 3)
	held := make([]bool, len(writers)) // holds a lock at X
	readers := make([]*ReadTx, 2)
	for step := 0; step < 60; step++ {
		switch k := rng.Intn(8); {
		case k < 4: // a writer
			i := rng.Intn(len(writers))
			w := writers[i]
			if w == nil {
				writers[i], held[i] = sys.Begin(), false
				continue
			}
			// The machine sees a writer only once it runs at X: a commit
			// elsewhere moves no clock at X, in either model.
			switch rng.Intn(4) {
			case 0:
				if err := w.Commit(); err != nil {
					fail("runtime commit: %v", err)
				}
				if ts, _ := w.Timestamp(); held[i] {
					if err := machine.Commit(w.ID(), ts); err != nil {
						fail("machine rejected commit the runtime performed: %v", err)
					}
				}
			case 1:
				if err := w.Abort(); err != nil {
					fail("runtime abort: %v", err)
				}
				if held[i] {
					if err := machine.Abort(w.ID()); err != nil {
						fail("machine abort: %v", err)
					}
				}
			default:
				inv := invs[rng.Intn(len(invs))]
				res, err := obj.Call(w, inv)
				if merr := machine.Invoke(w.ID(), inv); merr != nil {
					fail("machine invoke: %v", merr)
				}
				if errors.Is(err, ErrTimeout) {
					if g, _ := machine.GrantableResponses(w.ID()); len(g) != 0 {
						fail("runtime blocked %s but machine would grant %v", inv, g)
					}
					// Withdraw in both (the machine has no un-invoke).
					if err, merr := w.Abort(), machine.Abort(w.ID()); err != nil || merr != nil {
						fail("abort after a refusal: runtime %v, machine %v", err, merr)
					}
				} else if err != nil {
					fail("runtime call: %v", err)
				} else {
					held[i] = true
					if mres, ok, _ := machine.TryRespond(w.ID()); !ok || mres != res {
						fail("%s: runtime %q, machine %q (granted %v)", inv, res, mres, ok)
					}
					continue
				}
			}
			if held[i] { // the commit or abort folded at X
				folded()
			}
			writers[i] = nil
		case k < 7: // a reader
			i := rng.Intn(len(readers))
			r := readers[i]
			switch {
			case r == nil:
				r = sys.BeginReadOnly()
				if err := machine.BeginRead(r.ID(), r.Timestamp()); err != nil {
					fail("machine rejected the runtime's stamp: %v", err)
				}
				readers[i] = r
			case rng.Intn(3) == 0:
				if err := r.Commit(); err != nil {
					fail("runtime reader commit: %v", err)
				}
				if err := machine.EndRead(r.ID()); err != nil {
					fail("machine end: %v", err)
				}
				readers[i] = nil
			default:
				inv := reads[rng.Intn(len(reads))]
				res, err := obj.ReadCall(r, inv)
				mres, merr := machine.Read(r.ID(), inv)
				if err != nil || merr != nil || res != mres {
					fail("%s by %s at %d: runtime %q (%v), machine %q (%v)", inv, r.ID(), r.Timestamp(), res, err, mres, merr)
				}
			}
		default:
			obj.fold()
			folded()
		}
	}
}

func crossValidate(t *testing.T, typeName string, sp spec.Spec, conflict depend.Conflict, invs []spec.Invocation, seed int64, tableLimit int, entry commitEntry) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	opts := Options{LockWait: time.Millisecond}
	entry.options(&opts)
	sys := NewSystem(opts)
	coord := tstamp.NewSource()
	obj := sys.NewObjectSeeded("X", sp, conflict, baseline.UniverseFor(typeName))
	if tableLimit > 0 {
		obj.table = depend.Compile(conflict, baseline.UniverseFor(typeName), tableLimit)
	}
	machine := lockmachine.New("X", sp, conflict)

	const nTx = 4
	runtimeTx := make([]*Tx, nTx)
	machineTx := make([]histories.TxID, nTx)
	done := make([]bool, nTx)
	for i := range runtimeTx {
		runtimeTx[i] = sys.Begin()
		machineTx[i] = runtimeTx[i].ID()
	}

	for step := 0; step < 30; step++ {
		i := rng.Intn(nTx)
		if done[i] {
			continue
		}
		switch rng.Intn(5) {
		case 0: // commit
			if err := entry.commit(runtimeTx[i], coord); err != nil {
				t.Fatalf("seed %d: runtime commit: %v", seed, err)
			}
			ts, _ := runtimeTx[i].Timestamp()
			if err := machine.Commit(machineTx[i], ts); err != nil {
				t.Fatalf("seed %d: machine rejected commit the runtime performed: %v", seed, err)
			}
			done[i] = true
		case 1: // abort
			if err := runtimeTx[i].Abort(); err != nil {
				t.Fatalf("seed %d: runtime abort: %v", seed, err)
			}
			if err := machine.Abort(machineTx[i]); err != nil {
				t.Fatalf("seed %d: machine rejected abort: %v", seed, err)
			}
			done[i] = true
		default: // operation
			inv := invs[rng.Intn(len(invs))]
			res, err := obj.Call(runtimeTx[i], inv)
			if errors.Is(err, ErrTimeout) {
				// Refused (blocked) in the runtime: the machine must also
				// have no grantable response for this invocation.
				if err := machine.Invoke(machineTx[i], inv); err != nil {
					t.Fatalf("seed %d: machine invoke: %v", seed, err)
				}
				grantable, gerr := machine.GrantableResponses(machineTx[i])
				if gerr != nil {
					t.Fatalf("seed %d: %v", seed, gerr)
				}
				if len(grantable) != 0 {
					t.Fatalf("seed %d: runtime blocked %s but machine would grant %v", seed, inv, grantable)
				}
				// Withdraw by aborting this transaction in both models
				// (the machine has no un-invoke transition).
				if err := runtimeTx[i].Abort(); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if err := machine.Abort(machineTx[i]); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				done[i] = true
				continue
			}
			if err != nil {
				t.Fatalf("seed %d: runtime call: %v", seed, err)
			}
			// The machine must grant the same response, and it must be
			// the machine's first choice too (both sides pick the first
			// grantable response in specification order).
			if err := machine.Invoke(machineTx[i], inv); err != nil {
				t.Fatalf("seed %d: machine invoke: %v", seed, err)
			}
			mres, ok, merr := machine.TryRespond(machineTx[i])
			if merr != nil {
				t.Fatalf("seed %d: machine respond: %v", seed, merr)
			}
			if !ok {
				t.Fatalf("seed %d: runtime granted %s=%s but machine refused", seed, inv, res)
			}
			if mres != res {
				t.Fatalf("seed %d: responses diverged for %s: runtime %q, machine %q", seed, inv, res, mres)
			}
		}
	}

	// Finish everything so committed states are comparable.
	for i := range runtimeTx {
		if !done[i] {
			if err := entry.commit(runtimeTx[i], coord); err != nil {
				t.Fatalf("seed %d: final commit: %v", seed, err)
			}
			ts, _ := runtimeTx[i].Timestamp()
			if err := machine.Commit(machineTx[i], ts); err != nil {
				t.Fatalf("seed %d: machine final commit: %v", seed, err)
			}
		}
	}

	machineState, ok := spec.Replay(sp, machine.Permanent())
	if !ok {
		t.Fatalf("seed %d: machine permanent state illegal", seed)
	}
	if !sp.Equal(machineState, obj.CommittedState()) {
		t.Fatalf("seed %d: committed states diverged", seed)
	}
}
