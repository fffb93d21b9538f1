package tstamp

import (
	"sync"
	"testing"
	"testing/quick"

	"hybridcc/internal/histories"
)

func TestSourceMonotoneAndUnique(t *testing.T) {
	s := NewSource()
	seen := make(map[histories.Timestamp]bool)
	var last histories.Timestamp
	for i := 0; i < 100; i++ {
		ts := s.Next(0)
		if ts <= last {
			t.Fatalf("timestamp %d not increasing past %d", ts, last)
		}
		if seen[ts] {
			t.Fatalf("timestamp %d reused", ts)
		}
		seen[ts] = true
		last = ts
	}
}

func TestSourceRespectsLowerBound(t *testing.T) {
	s := NewSource()
	ts := s.Next(100)
	if ts <= 100 {
		t.Errorf("Next(100) = %d, want > 100", ts)
	}
	// A later call with a smaller bound must still move forward.
	ts2 := s.Next(5)
	if ts2 <= ts {
		t.Errorf("Next(5) = %d after %d", ts2, ts)
	}
}

func TestSourceObserve(t *testing.T) {
	s := NewSource()
	s.Observe(500)
	if s.Now() != 500 {
		t.Errorf("Now = %d after Observe(500)", s.Now())
	}
	if ts := s.Next(0); ts <= 500 {
		t.Errorf("Next after Observe(500) = %d", ts)
	}
	s.Observe(10) // observing the past is a no-op
	if s.Now() <= 500 {
		t.Error("Observe moved the clock backwards")
	}
}

func TestSourceConcurrentUnique(t *testing.T) {
	s := NewSource()
	const workers, per = 8, 200
	out := make(chan histories.Timestamp, workers*per)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				out <- s.Next(histories.Timestamp(i))
			}
		}()
	}
	wg.Wait()
	close(out)
	seen := make(map[histories.Timestamp]bool)
	for ts := range out {
		if seen[ts] {
			t.Fatalf("duplicate timestamp %d under concurrency", ts)
		}
		seen[ts] = true
	}
	if len(seen) != workers*per {
		t.Fatalf("issued %d timestamps, want %d", len(seen), workers*per)
	}
}

// TestSourceReadStampBounds walks every slot's sub-range of one gap: each
// stamp lies strictly between the clock and the next timestamp Next
// issues, inside its own slot's sub-range and above the slot's previous
// stamp, and ReadStamp declines once the sub-range is used up, for a slot
// beyond ReadSlots, and on a clock Observe left mid-gap.  It writes
// nothing: Now is unchanged.
//
// Mutation: `next := max(int64(last)+1, lo)` in ReadStamp (slot 0's first
// stamp is the clock itself) fails with "not above the clock".
func TestSourceReadStampBounds(t *testing.T) {
	s := NewSource()
	s.Next(0)
	g := s.Now()
	seen := map[histories.Timestamp]bool{}
	for slot := uint64(0); slot < ReadSlots; slot++ {
		last := histories.Timestamp(0)
		for n := 0; ; n++ {
			ts, ok := s.ReadStamp(slot, last)
			if !ok {
				if n != ReadRange-1 {
					t.Fatalf("slot %d declined after %d stamps, want %d", slot, n, ReadRange-1)
				}
				break
			}
			lo := g + histories.Timestamp(slot*ReadRange)
			switch {
			case ts <= g:
				t.Fatalf("slot %d stamp %d not above the clock %d", slot, ts, g)
			case ts <= lo || ts >= lo+ReadRange:
				t.Fatalf("slot %d stamp %d outside its sub-range (%d, %d)", slot, ts, lo, lo+ReadRange)
			case ts <= last:
				t.Fatalf("slot %d stamp %d not above its previous %d", slot, ts, last)
			case seen[ts]:
				t.Fatalf("stamp %d issued twice", ts)
			}
			seen[ts], last = true, ts
		}
	}
	if s.Now() != g {
		t.Fatalf("ReadStamp moved the clock from %d to %d", g, s.Now())
	}
	if next := s.Next(0); next != g+Stride {
		t.Fatalf("Next = %d after the gap above %d, want %d", next, g, g+Stride)
	}
	if _, ok := s.ReadStamp(ReadSlots, 0); ok {
		t.Error("a slot beyond ReadSlots got a stamp")
	}
	mid := s.Now() + 5
	s.Observe(mid)
	if _, ok := s.ReadStamp(0, 0); ok {
		t.Error("a clock left mid-gap gave a stamp")
	}
	if next := s.Next(0); next%Stride != 0 || next <= mid || next-mid >= Stride {
		t.Errorf("Next from %d = %d, want the next multiple of %d", mid, next, Stride)
	}
}

func TestNodeClockResidueClasses(t *testing.T) {
	const nodes = 3
	clocks := make([]*NodeClock, nodes)
	for i := range clocks {
		clocks[i] = NewNodeClock(i, nodes)
	}
	seen := make(map[histories.Timestamp]int)
	for round := 0; round < 50; round++ {
		for i, c := range clocks {
			ts := c.Next(0)
			if int64(ts)%nodes != int64(i) {
				t.Fatalf("node %d issued %d (mod %d = %d)", i, ts, nodes, int64(ts)%nodes)
			}
			if owner, dup := seen[ts]; dup {
				t.Fatalf("timestamp %d issued by both node %d and node %d", ts, owner, i)
			}
			seen[ts] = i
		}
	}
}

func TestNodeClockLowerBoundAndObserve(t *testing.T) {
	c := NewNodeClock(1, 4)
	ts := c.Next(1000)
	if ts <= 1000 || int64(ts)%4 != 1 {
		t.Errorf("Next(1000) = %d", ts)
	}
	c.Observe(5000)
	ts2 := c.Next(0)
	if ts2 <= 5000 || int64(ts2)%4 != 1 {
		t.Errorf("Next after Observe(5000) = %d", ts2)
	}
	if ts3 := c.Next(0); ts3 <= ts2 {
		t.Errorf("not monotone: %d then %d", ts2, ts3)
	}
}

func TestNodeClockProperty(t *testing.T) {
	c := NewNodeClock(2, 5)
	var last histories.Timestamp
	f := func(lower uint16) bool {
		ts := c.Next(histories.Timestamp(lower))
		ok := ts > histories.Timestamp(lower) && ts > last && int64(ts)%5 == 2
		last = ts
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestNodeClockValidation(t *testing.T) {
	for _, bad := range [][2]int{{-1, 3}, {3, 3}, {0, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewNodeClock(%d, %d) must panic", bad[0], bad[1])
				}
			}()
			NewNodeClock(bad[0], bad[1])
		}()
	}
}

func TestNodeClockNow(t *testing.T) {
	c := NewNodeClock(1, 3)
	if got := c.Now(); got != 1 {
		t.Fatalf("fresh Now = %d, want the node index floor 1", got)
	}
	ts := c.Next(0)
	if got := c.Now(); got != ts {
		t.Fatalf("Now = %d after issuing %d", got, ts)
	}
	c.Observe(100)
	if got := c.Now(); got != 100 {
		t.Fatalf("Now = %d after observing 100", got)
	}
	if next := c.Next(0); next <= 100 {
		t.Fatalf("Next = %d, want above the observed 100", next)
	}
}
