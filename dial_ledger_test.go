package hybridcc

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"hybridcc/internal/commitproto"
	"hybridcc/internal/histories"
	"hybridcc/internal/wal"
)

func openLedger(t *testing.T, dir, owner string) *commitproto.Ledger {
	t.Helper()
	l, err := commitproto.OpenLedger(dir, owner, wal.Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// A reloaded ledger must remember every incarnation's identifier prefix
// (so a restarted client recognizes its crashed predecessors' branches as
// its own) and must have forgotten discharged decisions while keeping the
// undischarged ones.
func TestDecisionLedgerReloadOwnershipAndDischarge(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ledger")

	l := openLedger(t, dir, "aaaa-")
	if err := l.Record("Taaaa-1", 100, 0); err != nil {
		t.Fatal(err)
	}
	if err := l.Record("Taaaa-2", 200, 0); err != nil {
		t.Fatal(err)
	}
	l.Discharge("Taaaa-1")
	if !l.Owns("Taaaa-1") || !l.Owns("Raaaa-7") {
		t.Fatal("ledger does not own its own prefix")
	}
	if l.Owns("Tcccc-1") {
		t.Fatal("ledger claims a foreign prefix")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// A new incarnation over the same dir: prior prefixes still owned,
	// discharged decision gone, live decision kept.
	l2 := openLedger(t, dir, "bbbb-")
	defer l2.Close()
	if ts, ok := l2.Lookup("Taaaa-2"); !ok || ts != 200 {
		t.Fatalf("Lookup(Taaaa-2) = %d, %v; want 200, true", ts, ok)
	}
	if _, ok := l2.Lookup("Taaaa-1"); ok {
		t.Fatal("discharged decision survived reload")
	}
	for _, id := range []histories.TxID{"Taaaa-9", "Rbbbb-1"} {
		if !l2.Owns(id) {
			t.Fatalf("reloaded ledger does not own %s", id)
		}
	}
	if l2.Owns("Tcccc-1") {
		t.Fatal("reloaded ledger claims a foreign prefix")
	}
}

// A ledger whose log fills with dead records (discharged decisions) cuts
// itself down to the live set while it runs, with no reopen, and a reopen
// after the cuts still finds every owner and the live decision.
func TestDecisionLedgerCompaction(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ledger")

	l := openLedger(t, dir, "aaaa-")
	if err := l.Record("Taaaa-keep", 5, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 600; i++ {
		tx := histories.TxID(fmt.Sprintf("Taaaa-%d", i))
		if err := l.Record(tx, histories.Timestamp(1000+i), 0); err != nil {
			t.Fatal(err)
		}
		l.Discharge(tx)
	}
	recs, err := wal.ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) >= 600 {
		t.Fatalf("the running ledger's log holds %d records after 1202 appends: it never cut", len(recs))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2 := openLedger(t, dir, "bbbb-")
	if ts, ok := l2.Lookup("Taaaa-keep"); !ok || ts != 5 {
		t.Fatalf("Lookup(Taaaa-keep) = %d, %v after the cuts; want 5, true", ts, ok)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	if recs, err = wal.ReadAll(dir); err != nil {
		t.Fatal(err)
	}
	s := wal.Summarize(recs)
	if len(s.Owners) != 2 || s.Owners[0] != "aaaa-" || s.Owners[1] != "bbbb-" {
		t.Fatalf("Owners after the cuts = %v, want [aaaa- bbbb-]", s.Owners)
	}
	if len(s.Decisions) != 1 || s.Decisions["Taaaa-keep"] != 5 {
		t.Fatalf("Decisions after the cuts = %v, want only Taaaa-keep@5", s.Decisions)
	}
}

// An earlier version compacted a ledger by a two-rename directory swap.
// Both of its crash windows leave a directory beside the ledger, and an
// open refuses both, naming the leftover, rather than guess: with the
// ledger absent, opening it empty would presume committed branches
// aborted.
func TestLedgerCompactionCrashWindows(t *testing.T) {
	// Window 1: crash before the swap — dir intact, dir+".compact" partial.
	dir := filepath.Join(t.TempDir(), "ledger")
	l := openLedger(t, dir, "aaaa-")
	if err := l.Record("Taaaa-1", 42, 0); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dir+".compact", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir+".compact", "000001.wal"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Window 2: crash between the renames — dir absent, complete copy
	// waiting, a superseded dir+".old" beside it.
	dir2 := filepath.Join(t.TempDir(), "ledger")
	cl, _, err := wal.Open(dir2+".compact", wal.Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.AppendSync(wal.Record{Kind: wal.KindDecision, Tx: "Taaaa-1", TS: 7}); err != nil {
		t.Fatal(err)
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dir2+".old", 0o755); err != nil {
		t.Fatal(err)
	}

	for d, left := range map[string]string{dir: dir + ".compact", dir2: dir2 + ".compact"} {
		_, err := commitproto.OpenLedger(d, "bbbb-", wal.Options{Sync: true})
		if err == nil || !strings.Contains(err.Error(), left) {
			t.Fatalf("OpenLedger(%s) = %v, want a refusal naming %s", d, err, left)
		}
	}
	if _, err := os.Stat(dir2); !os.IsNotExist(err) {
		t.Fatalf("the refused open created %s", dir2)
	}
	if err := os.RemoveAll(dir2 + ".compact"); err != nil {
		t.Fatal(err)
	}
	if _, err := commitproto.OpenLedger(dir2, "bbbb-", wal.Options{Sync: true}); err == nil || !strings.Contains(err.Error(), dir2+".old") {
		t.Fatalf("OpenLedger beside a leftover .old = %v, want a refusal naming it", err)
	}
}

// A ledger opened over a shard's directory refuses it, whether the shard's
// commits are still in its segments or folded into a checkpoint, and the
// shard reopens with every commit.
func TestLedgerRefusesShardDir(t *testing.T) {
	for _, ckpt := range []bool{false, true} {
		dir := filepath.Join(t.TempDir(), "shard")
		var acct *Account
		setup := func(s *System) (err error) {
			acct, err = s.NewAccount("acct")
			return err
		}
		sys, err := Open(dir, setup)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 600; i++ {
			if err := sys.Atomically(func(tx *Tx) error { return acct.Credit(tx, 1) }); err != nil {
				t.Fatal(err)
			}
		}
		want := "commit record"
		if ckpt {
			if err := sys.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			want = "checkpoint"
		}
		if err := sys.Close(); err != nil {
			t.Fatal(err)
		}
		_, err = commitproto.OpenLedger(dir, "x-", wal.Options{Sync: true})
		if err == nil || !strings.Contains(err.Error(), dir) || !strings.Contains(err.Error(), want) {
			t.Fatalf("OpenLedger over a shard dir = %v, want a refusal naming %s and a %s", err, dir, want)
		}
		if sys, err = Open(dir, setup); err != nil {
			t.Fatal(err)
		}
		if got := acct.CommittedBalance(); got != 600 {
			t.Fatalf("balance after the refused ledger open = %d, want 600", got)
		}
		if err := sys.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// A shard opened over a decision ledger's directory refuses it, and the
// ledger reopens with its decision.
func TestOpenRefusesLedgerDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ledger")
	l := openLedger(t, dir, "")
	if err := l.Record("Tx-1", 9, 0); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, err := Open(dir, func(s *System) error { _, err := s.NewAccount("acct"); return err })
	if err == nil || !strings.Contains(err.Error(), dir) || !strings.Contains(err.Error(), "decision record") {
		t.Fatalf("Open over a ledger dir = %v, want a refusal naming %s and a decision record", err, dir)
	}
	l = openLedger(t, dir, "")
	defer l.Close()
	if ts, ok := l.Lookup("Tx-1"); !ok || ts != 9 {
		t.Fatalf("Lookup(Tx-1) after the refused shard open = %d, %v; want 9, true", ts, ok)
	}
}

// End to end: a dialed cluster with a durable decision log discharges
// every decision once all shards acknowledge durable apply, so a clean
// shutdown leaves the ledger holding no decisions — only owner records.
func TestDialedDecisionLogPrunedAfterAcks(t *testing.T) {
	addrs := startNetShards(t, 2)
	dir := filepath.Join(t.TempDir(), "ledger")

	var out, in *Counter
	c, err := Dial(addrs, func(cl *Cluster) error {
		var err error
		if out, err = counterOn(cl, 0, "out"); err != nil {
			return err
		}
		in, err = counterOn(cl, 1, "in")
		return err
	}, WithDialDecisionLog(dir), WithCommitTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 5; i++ {
		err := c.Atomically(func(tx *DTx) error {
			if err := out.Inc(tx, 3); err != nil {
				return err
			}
			return in.Inc(tx, 3)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	recs, err := wal.ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := wal.Summarize(recs)
	if len(s.Decisions) != 0 {
		t.Fatalf("ledger still holds %d decisions after acked shutdown: %v", len(s.Decisions), s.Decisions)
	}
	if len(s.Owners) != 1 {
		t.Fatalf("Owners = %v, want the single dialing prefix", s.Owners)
	}
	if s.Discharged == 0 {
		t.Fatal("no discharge records: cross-shard commits were never pruned")
	}
}

// Concurrent transactions share the pooled connections while committed
// cross-shard rounds leave their decide replies owed on them.  Every
// acknowledgement is still read — by a later transaction, the idle sweep
// or Close — so a clean shutdown leaves no decision in the ledger, and the
// recorded history, single-shard commits included, verifies.
func TestDialedConcurrentCommitsDischargeEveryDecision(t *testing.T) {
	addrs := startNetShards(t, 2)
	dir := filepath.Join(t.TempDir(), "ledger")
	rec := NewRecorder()
	var out, in *Counter
	c, err := Dial(addrs, func(cl *Cluster) error {
		var err error
		if out, err = counterOn(cl, 0, "out"); err != nil {
			return err
		}
		in, err = counterOn(cl, 1, "in")
		return err
	}, WithDialDecisionLog(dir), WithRecorder(rec), WithCommitTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := c.Atomically(func(tx *DTx) error {
					if err := out.Inc(tx, 1); err != nil || i%2 == 0 {
						return err
					}
					return in.Inc(tx, 1)
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := wal.ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s := wal.Summarize(recs); len(s.Decisions) != 0 {
		t.Fatalf("ledger still holds %d decisions after a clean shutdown: %v", len(s.Decisions), s.Decisions)
	}
}

// A dialed cluster's durable ledger stays bounded under cross-shard
// traffic without a restart: every decision is discharged on the shards'
// acks, and the ledger's cut keeps its log under twice its dead-record
// threshold (512, commitproto's ledgerDeadRecords) plus the live set.
func TestDialedLedgerBoundedWithoutRestart(t *testing.T) {
	addrs := startNetShards(t, 2)
	dir := filepath.Join(t.TempDir(), "ledger")
	var out, in *Counter
	c, err := Dial(addrs, func(cl *Cluster) error {
		var err error
		if out, err = counterOn(cl, 0, "out"); err != nil {
			return err
		}
		in, err = counterOn(cl, 1, "in")
		return err
	}, WithDialDecisionLog(dir), WithCommitTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const bound = 2*512 + 1 // the owner record is the whole live set between transactions
	for i := 1; i <= 2000; i++ {
		err := c.Atomically(func(tx *DTx) error {
			if err := out.Inc(tx, 1); err != nil {
				return err
			}
			return in.Inc(tx, 1)
		})
		if err != nil {
			t.Fatal(err)
		}
		if i%100 != 0 {
			continue
		}
		recs, err := wal.ReadAll(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) > bound {
			t.Fatalf("after %d transactions the ledger log holds %d records, want ≤ %d", i, len(recs), bound)
		}
	}
}
