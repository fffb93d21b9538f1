package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hybridcc/internal/adt"
	"hybridcc/internal/depend"
	"hybridcc/internal/histories"
	"hybridcc/internal/tstamp"
)

// This file tests reader stamps on a System that mints its own timestamps:
// a reader stamps itself in the gap above the clock (tstamp.Source's
// ReadStamp) and draws only when that declines.  Run with -race and
// -cpu 1,4, as CI does.

// raiseTo lifts m to at least v.
func raiseTo(m *atomic.Int64, v int64) {
	for cur := m.Load(); v > cur && !m.CompareAndSwap(cur, v); cur = m.Load() {
	}
}

// TestReaderStampsUniqueAndOrdered runs snapshots from many goroutines —
// plain, pooled, and one recycled struct per goroutine that keeps its slot —
// while writers commit.  Every reader stamp and writer timestamp is
// distinct, each reader's stamp lies above every commit that returned
// before its begin, and each writer's timestamp lies above every stamp a
// reader held before the writer began.
//
// Mutation: drop the tie-break — startRead passes 0 for the slot's last
// stamp, or ReadStamp ignores it.  Two readers that hold one slot between
// two commits then share a stamp, and this test fails with "issued twice".
func TestReaderStampsUniqueAndOrdered(t *testing.T) {
	const (
		readers = 6
		snaps   = 300
		writers = 2
		commits = 150
	)
	sys, c := counterSystem(Options{LockWait: 5 * time.Second})
	var committed, stamped atomic.Int64 // the largest commit returned, stamp begun
	stamps := make([][]histories.Timestamp, readers+writers)
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			own := &ReadTx{sys: sys}
			for n := 0; n < snaps; n++ {
				floor := committed.Load()
				var r *ReadTx
				switch n % 3 {
				case 0:
					r = sys.BeginReadOnly()
				case 1:
					r = sys.BeginReadOnlyPooledCtx(nil)
				default:
					r = sys.startRead(own, nil, readSeqBlock)
				}
				if int64(r.Timestamp()) <= floor {
					t.Errorf("reader stamp %d not above %d, committed before it began", r.Timestamp(), floor)
				}
				raiseTo(&stamped, int64(r.Timestamp()))
				stamps[g] = append(stamps[g], r.Timestamp())
				if _, err := c.ReadCall(r, adt.CtrReadInv()); err != nil {
					t.Error(err)
				}
				if err := r.Commit(); err != nil {
					t.Error(err)
				}
				if n%3 == 1 {
					sys.RecycleRead(r)
				}
			}
		}(g)
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; n < commits; n++ {
				floor := stamped.Load()
				tx := sys.Begin()
				mustCall(t, c, tx, adt.IncInv(1))
				if err := tx.Commit(); err != nil {
					t.Error(err)
				}
				ts, _ := tx.Timestamp()
				if int64(ts) <= floor {
					t.Errorf("writer timestamp %d not above reader stamp %d, begun before it", ts, floor)
				}
				stamps[readers+w] = append(stamps[readers+w], ts)
				raiseTo(&committed, int64(ts))
			}
		}(w)
	}
	wg.Wait()
	assertDistinct(t, stamps...)
}

// assertDistinct fails on a timestamp that appears twice.
func assertDistinct(t *testing.T, lists ...[]histories.Timestamp) {
	t.Helper()
	seen := map[histories.Timestamp]bool{}
	for _, l := range lists {
		for _, ts := range l {
			if seen[ts] {
				t.Fatalf("timestamp %d issued twice", ts)
			}
			seen[ts] = true
		}
	}
}

// draws counts the stamps that are multiples of tstamp.Stride: draws from
// the clock, where ReadStamp declined.
func draws(l []histories.Timestamp) int {
	n := 0
	for _, ts := range l {
		if ts%tstamp.Stride == 0 {
			n++
		}
	}
	return n
}

// TestReaderStampFallbacks forces each way ReadStamp declines, after which
// a reader draws from the clock: a slot that runs more readers between two
// commits than its sub-range holds, a slot beyond tstamp.ReadSlots, and a
// clock left mid-gap by recovery over a log whose timestamps are no stride
// multiples.  Stamps stay distinct and increasing throughout.
func TestReaderStampFallbacks(t *testing.T) {
	t.Run("sub-range used up", func(t *testing.T) {
		sys, _ := counterSystem(Options{})
		own := &ReadTx{sys: sys} // returns to its slot every time
		var got []histories.Timestamp
		for n := 0; n < 2*tstamp.ReadRange; n++ {
			r := sys.startRead(own, nil, readSeqBlock)
			if len(got) > 0 && r.Timestamp() <= got[len(got)-1] {
				t.Fatalf("stamp %d after %d", r.Timestamp(), got[len(got)-1])
			}
			got = append(got, r.Timestamp())
			if err := r.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		assertDistinct(t, got)
		// Each gap gives the slot ReadRange−1 stamps, then a draw opens the next.
		if d := draws(got); d != len(got)/tstamp.ReadRange {
			t.Errorf("%d draws among %d stamps of one slot without a commit, want one per %d", d, len(got), tstamp.ReadRange)
		}
	})
	t.Run("slot beyond the residue space", func(t *testing.T) {
		sys, _ := counterSystem(Options{})
		var open []*ReadTx
		var got []histories.Timestamp
		for n := 0; n < tstamp.ReadSlots+16; n++ {
			r := sys.BeginReadOnly()
			open = append(open, r)
			got = append(got, r.Timestamp())
		}
		for _, r := range open {
			if err := r.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		assertDistinct(t, got)
		if d := draws(got); d == 0 {
			t.Errorf("no draw among %d readers open at once", len(got))
		}
	})
	t.Run("recovered mid-gap", func(t *testing.T) {
		dir := t.TempDir()
		old, err := OpenSystem(Options{ExternalTimestamps: true, Durability: &Durability{Dir: dir, Sync: true}})
		if err != nil {
			t.Fatal(err)
		}
		if err := old.FinishRecovery(); err != nil {
			t.Fatal(err)
		}
		counter := func(s *System) *Object {
			return s.NewObject("C", adt.NewCounter(), depend.SymmetricClosure(depend.CounterDependency()))
		}
		tx := old.BeginBranch(nil, "X1")
		mustCall(t, counter(old), tx, adt.IncInv(5))
		if err := tx.CommitAt(5); err != nil { // a dense log's timestamp
			t.Fatal(err)
		}
		if err := old.Close(); err != nil {
			t.Fatal(err)
		}
		sys, err := OpenSystem(Options{Durability: &Durability{Dir: dir, Sync: true}})
		if err != nil {
			t.Fatal(err)
		}
		c := counter(sys)
		if err := sys.FinishRecovery(); err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		first := sys.BeginReadOnly()
		second := sys.BeginReadOnly()
		if first.Timestamp() != tstamp.Stride || second.Timestamp() <= first.Timestamp() || second.Timestamp()%tstamp.Stride == 0 {
			t.Errorf("stamps %d, %d after recovery to 5: want a draw to %d, then a stamp in the gap above it",
				first.Timestamp(), second.Timestamp(), tstamp.Stride)
		}
		for _, r := range []*ReadTx{first, second} {
			if got, err := c.ReadCall(r, adt.CtrReadInv()); err != nil || got != "5" {
				t.Errorf("reader at %d read %q, %v; want the recovered 5", r.Timestamp(), got, err)
			}
			if err := r.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	})
}
