package commitproto

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"hybridcc/internal/histories"
	"hybridcc/internal/wal"
)

func openTestLedger(t *testing.T, dir, owner string, opts wal.Options) *Ledger {
	t.Helper()
	l, err := OpenLedger(dir, owner, opts)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// segments lists dir's segment files in index order.
func segments(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "wal-") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names) // zero-padded index: lexicographic == numeric
	return names
}

// wantLive reopens dir and checks that every owner and every undischarged
// decision survived; a discharged decision may come back.
func wantLive(t *testing.T, dir string, owners []string, live map[histories.TxID]histories.Timestamp) {
	t.Helper()
	l := openTestLedger(t, dir, "", wal.Options{Sync: true})
	defer l.Close()
	for tx, ts := range live {
		if got, ok := l.Lookup(tx); !ok || got != ts {
			t.Fatalf("after reopen: Lookup(%s) = %d, %v; want %d, true", tx, got, ok, ts)
		}
	}
	for _, p := range owners {
		if !l.Owns(histories.TxID("T" + p + "1")) {
			t.Fatalf("after reopen: owner %s lost", p)
		}
	}
}

// TestLedgerSoak: 100 000 decide-and-discharge pairs through one ledger
// with no restart.  The pairs' own appends run with fsync off; a cut seals
// its live set regardless.  The log never holds more than twice the
// dead-record threshold plus the live set, and ends in at most two
// segments.
func TestLedgerSoak(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ledger")
	l := openTestLedger(t, dir, "soak-", wal.Options{})
	if err := l.Record("Tsoak-keep", 1, 0); err != nil {
		t.Fatal(err)
	}
	const pairs, live = 100_000, 2 // the owner and Tsoak-keep
	for i := 1; i <= pairs; i++ {
		tx := histories.TxID(fmt.Sprintf("Tsoak-%d", i))
		if err := l.Record(tx, histories.Timestamp(i+1), 0); err != nil {
			t.Fatal(err)
		}
		l.Discharge(tx)
		if i%1000 != 0 {
			continue
		}
		recs, err := wal.ReadAll(dir)
		if err != nil {
			t.Fatal(err)
		}
		l.mu.Lock()
		held := l.records // with fsync off most of them are still buffered
		l.mu.Unlock()
		if max(len(recs), held) > 2*ledgerDeadRecords+live {
			t.Fatalf("after %d pairs the log holds %d records (%d on disk), want ≤ %d", i, held, len(recs), 2*ledgerDeadRecords+live)
		}
	}
	if segs := segments(t, dir); len(segs) > 2 {
		t.Fatalf("after %d pairs the ledger holds %d segments, want ≤ 2: %v", pairs, len(segs), segs)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	wantLive(t, dir, []string{"soak-"}, map[histories.TxID]histories.Timestamp{"Tsoak-keep": 1})
}

// TestLedgerCutCrashPoints crashes the ledger at every point of its first
// cut — after the rotate, after the live set's append but before its seal,
// after the seal but before any unlink, and after unlinking every subset of
// the segments below the cut with no directory sync — and reopens: every
// owner and every undischarged decision must survive each one.
func TestLedgerCutCrashPoints(t *testing.T) {
	errStop := errors.New("stop")
	for _, stop := range []string{"rotated", "appended", "sealed"} {
		t.Run(stop, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "ledger")
			opts := wal.Options{Sync: true, SegmentSize: 4 << 10}
			l := openTestLedger(t, dir, "a-", opts)
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			l = openTestLedger(t, dir, "b-", opts)
			live := make(map[histories.TxID]histories.Timestamp)
			var below []string
			fired := false
			l.step = func(step string) error {
				if step == "rotated" {
					segs := segments(t, dir)
					below = segs[:len(segs)-1]
				}
				if step == stop {
					fired = true
					return errStop
				}
				return nil
			}
			for i := 1; !fired; i++ {
				if i > 10*ledgerDeadRecords {
					t.Fatal("no cut fired")
				}
				tx, ts := histories.TxID(fmt.Sprintf("Ta-%d", i)), histories.Timestamp(i)
				if err := l.Record(tx, ts, 0); err != nil {
					t.Fatal(err)
				}
				if i%50 == 0 {
					live[tx] = ts
					continue
				}
				l.Discharge(tx)
			}
			l.Crash()
			crashed := filepath.Join(t.TempDir(), "crashed")
			copyDir(t, dir, crashed) // the reopen below cuts the log again
			owners := []string{"a-", "b-"}
			wantLive(t, dir, owners, live)
			if stop != "sealed" {
				return
			}
			if len(below) < 2 {
				t.Fatalf("the cut had %d segments below it, want several", len(below))
			}
			// Unlinks without a directory sync may reach the disk in any
			// subset.
			for mask := 1; mask < 1<<len(below); mask++ {
				cp := filepath.Join(t.TempDir(), "ledger")
				copyDir(t, crashed, cp)
				for i, name := range below {
					if mask&(1<<i) != 0 {
						if err := os.Remove(filepath.Join(cp, name)); err != nil {
							t.Fatal(err)
						}
					}
				}
				wantLive(t, cp, owners, live)
			}
		})
	}
}

func copyDir(t *testing.T, from, to string) {
	t.Helper()
	if err := os.MkdirAll(to, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range segments(t, from) {
		b, err := os.ReadFile(filepath.Join(from, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLedgerConcurrentCuts: 8 goroutines Record and Discharge while cuts
// fire, then the ledger crashes; a reopen finds every owner and every
// decision left undischarged.
func TestLedgerConcurrentCuts(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ledger")
	l := openTestLedger(t, dir, "c-", wal.Options{Sync: true, SegmentSize: 16 << 10})
	const workers, perWorker = 8, 300
	kept := make([]map[histories.TxID]histories.Timestamp, workers)
	var wg sync.WaitGroup
	for w := range workers {
		kept[w] = make(map[histories.TxID]histories.Timestamp)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= perWorker; i++ {
				tx, ts := histories.TxID(fmt.Sprintf("Tc-%d-%d", w, i)), histories.Timestamp(w*perWorker+i)
				if err := l.Record(tx, ts, 0); err != nil {
					t.Error(err)
					return
				}
				if i%25 == 0 {
					kept[w][tx] = ts
					continue
				}
				l.Discharge(tx)
				if _, ok := l.Lookup(tx); ok {
					t.Errorf("%s still ledgered after its discharge", tx)
				}
			}
		}()
	}
	wg.Wait()
	if recs, err := wal.ReadAll(dir); err != nil || len(recs) >= 2*workers*perWorker {
		t.Fatalf("the log holds %d records (%v) after %d appends: no cut fired", len(recs), err, 2*workers*perWorker)
	}
	l.Crash()
	live := make(map[histories.TxID]histories.Timestamp)
	for _, k := range kept {
		for tx, ts := range k {
			live[tx] = ts
		}
	}
	wantLive(t, dir, []string{"c-"}, live)
}
