package cluster

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hybridcc/internal/adt"
	"hybridcc/internal/commitproto"
	"hybridcc/internal/core"
	"hybridcc/internal/histories"
)

// Crash-point tests for durable clusters: shard commit logs plus the
// coordinator decision log, exercised through the real 2PC machinery with
// message delivery cut at the worst moments.

func openDurableCluster(t *testing.T, dir string, shards int) *Cluster {
	t.Helper()
	c, err := New(Options{
		Shards:     shards,
		LockWait:   250 * time.Millisecond,
		Durability: &core.Durability{Dir: dir, Sync: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// transfer moves amount between two accounts on different shards through a
// distributed transaction (the cross-shard 2PC path when they differ).
func transfer(t *testing.T, c *Cluster, from, to *core.Object, amount int64) {
	t.Helper()
	tx := c.Begin()
	brF, err := tx.Branch(from)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := from.Call(brF, adt.DebitInv(amount)); err != nil {
		t.Fatal(err)
	}
	brT, err := tx.Branch(to)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := to.Call(brT, adt.CreditInv(amount)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func balance(t *testing.T, o *core.Object) int64 {
	t.Helper()
	return adt.AccountBalance(o.CommittedState())
}

// TestDurableClusterHardStop: cross-shard transfers under 2PC, hard stop
// (CrashLogs, no Close), reopen — every acknowledged transfer is back, with
// both shards agreeing on each cross-shard timestamp (FinishRecovery would
// refuse the merge otherwise).
func TestDurableClusterHardStop(t *testing.T) {
	dir := t.TempDir()
	c := openDurableCluster(t, dir, 2)
	if err := c.FinishRecovery(); err != nil {
		t.Fatal(err)
	}
	a, b := newAccountOn(c, 0, "a"), newAccountOn(c, 1, "b")
	fund(t, c, a, 100)
	fund(t, c, b, 100)
	for i := 0; i < 5; i++ {
		transfer(t, c, a, b, 10)
	}
	c.CrashLogs()

	c2 := openDurableCluster(t, dir, 2)
	a2, b2 := newAccountOn(c2, 0, "a"), newAccountOn(c2, 1, "b")
	if err := c2.FinishRecovery(); err != nil {
		t.Fatal(err)
	}
	if got, want := balance(t, a2), int64(50); got != want {
		t.Fatalf("a = %d, want %d", got, want)
	}
	if got, want := balance(t, b2), int64(150); got != want {
		t.Fatalf("b = %d, want %d", got, want)
	}
	// Recovery counted every transaction once per shard it touched.
	st := c2.Stats()
	if st.Total.Recovered != 2+2*5 {
		t.Fatalf("Recovered = %d, want %d", st.Total.Recovered, 2+2*5)
	}
	// And the cluster's identifier counter cleared the recovered ids: the
	// next transaction commits under a fresh name.
	transfer(t, c2, b2, a2, 1)
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}

	c3 := openDurableCluster(t, dir, 2)
	a3, b3 := newAccountOn(c3, 0, "a"), newAccountOn(c3, 1, "b")
	if err := c3.FinishRecovery(); err != nil {
		t.Fatal(err)
	}
	if got, want := balance(t, a3), int64(51); got != want {
		t.Fatalf("second recovery: a = %d, want %d", got, want)
	}
	if got, want := balance(t, b3), int64(149); got != want {
		t.Fatalf("second recovery: b = %d, want %d", got, want)
	}
	c3.Close()
}

// crashAfterVote is a branch whose site dies the moment it has voted: the
// vote gets out, every later message finds the site unreachable — the
// canonical prepared-but-undecided window.
type crashAfterVote struct {
	core.TxParticipant
	crash func()
}

func (p crashAfterVote) Prepare(tx histories.TxID) (histories.Timestamp, bool) {
	lower, ok := p.TxParticipant.Prepare(tx)
	p.crash()
	return lower, ok
}

// TestPreparedUndecidedRecovery drives the prepared-but-undecided window
// both ways a decision fails to arrive — the site crashed after voting
// (Direct.Crash), the decision message was lost (a scripted FaultTransport
// drop) — and on both decision outcomes.
//
// decided=true: the coordinator's decision record reached its log before
// delivery died (decision-before-delivery guarantees this ordering), so
// recovery finds the record and commits the prepared branches at the
// decided timestamp.
//
// decided=false: the process died after the branches' prepared records were
// synced but before the coordinator decided.  No decision record exists, so
// recovery presumes abort and the transfer vanishes — on every shard, so
// atomicity holds either way.
func TestPreparedUndecidedRecovery(t *testing.T) {
	for _, lost := range []bool{false, true} {
		for _, decided := range []bool{true, false} {
			name := fmt.Sprintf("lost=%v/decided=%v", lost, decided)
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				c := openDurableCluster(t, dir, 2)
				if err := c.FinishRecovery(); err != nil {
					t.Fatal(err)
				}
				a, b := newAccountOn(c, 0, "a"), newAccountOn(c, 1, "b")
				fund(t, c, a, 100)
				fund(t, c, b, 100)

				// Run the transfer's branches by hand, exactly as DTx
				// does, so the crash point is ours to place.
				const id = histories.TxID("T77")
				brA := c.Shard(0).BeginBranch(nil, id)
				brB := c.Shard(1).BeginBranch(nil, id)
				if _, err := a.Call(brA, adt.DebitInv(30)); err != nil {
					t.Fatal(err)
				}
				if _, err := b.Call(brB, adt.CreditInv(30)); err != nil {
					t.Fatal(err)
				}

				if decided {
					// Full protocol round over transports the decision
					// never gets through.
					var trs []commitproto.Transport
					for i, br := range []*core.Tx{brA, brB} {
						p := core.TxParticipant{Tx: br}
						if lost {
							ft := commitproto.NewFaultTransport()
							ft.Script(commitproto.ClassCommit, commitproto.DropRequest)
							trs = append(trs, ft.Wrap(commitproto.NewDirect(c.names[i], p)))
						} else {
							var d *commitproto.Direct
							d = commitproto.NewDirect(c.names[i], crashAfterVote{p, func() { d.Crash() }})
							trs = append(trs, d)
						}
					}
					dec, _, err := c.coord.RunTransports(context.Background(), id, trs)
					if err != nil || dec != commitproto.Committed {
						t.Fatalf("RunTransports = %v, %v", dec, err)
					}
				} else {
					// Death between prepare and decision: votes logged,
					// coordinator never decided.
					if _, err := brA.Prepare(); err != nil {
						t.Fatal(err)
					}
					if _, err := brB.Prepare(); err != nil {
						t.Fatal(err)
					}
				}
				c.CrashLogs()

				c2 := openDurableCluster(t, dir, 2)
				a2, b2 := newAccountOn(c2, 0, "a"), newAccountOn(c2, 1, "b")
				// Before resolution, both shards report the branch pending.
				for i := 0; i < 2; i++ {
					pend := c2.Shard(i).RecoveredPending()
					if len(pend) != 1 || pend[0].ID != id {
						t.Fatalf("shard %d pending = %+v, want [%s]", i, pend, id)
					}
				}
				if err := c2.FinishRecovery(); err != nil {
					t.Fatal(err)
				}
				wantA, wantB := int64(100), int64(100)
				if decided {
					wantA, wantB = 70, 130
				}
				if got := balance(t, a2); got != wantA {
					t.Fatalf("a = %d, want %d", got, wantA)
				}
				if got := balance(t, b2); got != wantB {
					t.Fatalf("b = %d, want %d", got, wantB)
				}
				if err := c2.Close(); err != nil {
					t.Fatal(err)
				}

				// The resolution is durable either way: a third
				// incarnation sees no pending branches and the same
				// balances.
				c3 := openDurableCluster(t, dir, 2)
				a3, b3 := newAccountOn(c3, 0, "a"), newAccountOn(c3, 1, "b")
				for i := 0; i < 2; i++ {
					if n := len(c3.Shard(i).RecoveredPending()); n != 0 {
						t.Fatalf("shard %d still has %d pending after resolution", i, n)
					}
				}
				if err := c3.FinishRecovery(); err != nil {
					t.Fatal(err)
				}
				if got := balance(t, a3); got != wantA {
					t.Fatalf("third open: a = %d, want %d", got, wantA)
				}
				if got := balance(t, b3); got != wantB {
					t.Fatalf("third open: b = %d, want %d", got, wantB)
				}
				c3.Close()
			})
		}
	}
}

// TestShardCountPinned: a durable cluster's directory fixes the shard
// count; reopening with a different one must refuse, since placement
// hashes object names modulo the count.
func TestShardCountPinned(t *testing.T) {
	dir := t.TempDir()
	c := openDurableCluster(t, dir, 2)
	if err := c.FinishRecovery(); err != nil {
		t.Fatal(err)
	}
	newAccountOn(c, 0, "a")
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	_, err := New(Options{Shards: 3, Durability: &core.Durability{Dir: dir, Sync: true}})
	if err == nil || !strings.Contains(err.Error(), "shard count") {
		t.Fatalf("reopen with changed shard count: err = %v", err)
	}
}

// segSize returns the byte length of a shard's (single) log segment.
func segSize(t *testing.T, dir string) int64 {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".seg") {
			segs = append(segs, e.Name())
		}
	}
	if len(segs) != 1 {
		t.Fatalf("%s holds %d segments, want 1", dir, len(segs))
	}
	fi, err := os.Stat(filepath.Join(dir, segs[0]))
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestTornCrossShardLegRefused: when one shard's log lost every trace of a
// cross-shard transaction (the WithFsync(false) crash shape: each log
// loses an independent buffered tail), recovery must detect the missing
// leg from the surviving commit record's participant stamp and refuse the
// directory — never replay the transaction on a subset of its shards.
func TestTornCrossShardLegRefused(t *testing.T) {
	dir := t.TempDir()
	c := openDurableCluster(t, dir, 2)
	if err := c.FinishRecovery(); err != nil {
		t.Fatal(err)
	}
	a, b := newAccountOn(c, 0, "a"), newAccountOn(c, 1, "b")
	fund(t, c, a, 100)
	fund(t, c, b, 100)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	shard1 := filepath.Join(dir, "shard1")
	beforeTransfer := segSize(t, shard1)

	c2 := openDurableCluster(t, dir, 2)
	a2, b2 := newAccountOn(c2, 0, "a"), newAccountOn(c2, 1, "b")
	if err := c2.FinishRecovery(); err != nil {
		t.Fatal(err)
	}
	transfer(t, c2, a2, b2, 10) // cross-shard 2PC commit
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}

	// Lose shard1's tail: truncate its log back to the pre-transfer length,
	// dropping the transfer's prepared AND commit records there while
	// shard0's leg and the coordinator's decision record survive.
	seg := filepath.Join(shard1, "wal-00000001.seg")
	if err := os.Truncate(seg, beforeTransfer); err != nil {
		t.Fatal(err)
	}

	c3, err := New(Options{
		Shards:     2,
		LockWait:   250 * time.Millisecond,
		Durability: &core.Durability{Dir: dir, Sync: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	newAccountOn(c3, 0, "a")
	newAccountOn(c3, 1, "b")
	err = c3.FinishRecovery()
	if err == nil {
		t.Fatal("recovery replayed a cross-shard transaction missing a leg")
	}
	if !strings.Contains(err.Error(), "leg is missing") {
		t.Fatalf("recovery error = %v, want a missing-leg refusal", err)
	}
}

// TestNewFailureClosesLogs: a Cluster constructor failure after shard logs
// have opened must close them — file descriptors must not outlive the
// failed New (regression: they leaked).
func TestNewFailureClosesLogs(t *testing.T) {
	countFDs := func() int {
		t.Helper()
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("cannot count descriptors: %v", err)
		}
		return len(ents)
	}
	durable := func(dir string) Options {
		return Options{Shards: 2, Durability: &core.Durability{Dir: dir, Sync: true}}
	}

	// Failure after every shard opened: a regular file squatting on the
	// coordinator log's directory name.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, coordDirName), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	before := countFDs()
	if _, err := New(durable(dir)); err == nil {
		t.Fatal("New succeeded with the coord directory blocked")
	}
	if after := countFDs(); after > before {
		t.Fatalf("coord-failure path leaked %d descriptor(s)", after-before)
	}

	// Failure opening a later shard: the same squatter on shard1's name,
	// so shard0's log opens and must be closed again.
	dir = t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "shard1"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	before = countFDs()
	if _, err := New(durable(dir)); err == nil {
		t.Fatal("New succeeded with shard1's directory blocked")
	}
	if after := countFDs(); after > before {
		t.Fatalf("shard-failure path leaked %d descriptor(s)", after-before)
	}
}
