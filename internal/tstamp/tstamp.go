// Package tstamp generates commit timestamps.  Section 2 of Herlihy &
// Weihl requires timestamps to be unique, totally ordered, and consistent
// with the precedes order: a transaction that executes at an object after
// another has committed there must receive a later timestamp.  Both
// generators here satisfy that constraint the way the paper suggests —
// with Lamport-style logical clocks primed by an observed lower bound.
//
// Both clocks are lock-free: the counter is a single atomic word advanced
// by compare-and-swap, so concurrent commits on different objects never
// serialize on a clock mutex.  A successful CAS publishes a value no other
// Next can return (the swap is the unique transition past that value),
// which preserves uniqueness; monotonicity holds because every transition
// strictly increases the counter.
//
// Source also stamps Section 7's read-only transactions, which take their
// timestamps when they start, without writing the counter.  Next issues
// multiples of Stride; the values strictly between two of them — the gap
// above the newest timestamp — belong to readers.  ReadStamp hands a reader
// a value in that gap with one load: the gap is cut into ReadSlots
// sub-ranges, one per reader slot, and the slot's previous stamp breaks
// ties inside a sub-range, so two readers never meet at a shared word and
// never share a stamp.  A reader's stamp is above every timestamp issued or
// observed before its load and below every timestamp issued after it.  At
// a Stride of 2^16 a Source issues 2^47 ≈ 1.4·10^14 timestamps before its
// int64 overflows: four and a half years at a million commits a second.
package tstamp

import (
	"fmt"
	"sync/atomic"

	"hybridcc/internal/histories"
)

// Clock issues commit timestamps.  Next returns a fresh timestamp strictly
// greater than both every timestamp the clock has issued or observed and
// the supplied lower bound; Observe advances the clock past an externally
// generated timestamp (the Lamport "receive" rule).
type Clock interface {
	Next(lower histories.Timestamp) histories.Timestamp
	Observe(ts histories.Timestamp)
}

// A Source's gap layout: Next issues multiples of Stride, and reader slot i
// owns the ReadRange−1 values g+i·ReadRange+1 … g+(i+1)·ReadRange−1 of the
// gap above g, so no sub-range touches a multiple of Stride.
const (
	Stride    = 1 << 16
	ReadRange = 1 << 8
	ReadSlots = Stride / ReadRange
)

// Source is a process-wide timestamp source: a single logical clock.  The
// zero value is ready to use and issues timestamps starting at Stride.
type Source struct {
	last atomic.Int64
}

// NewSource returns a fresh Source.
func NewSource() *Source { return &Source{} }

// Next implements Clock: it issues the smallest multiple of Stride above
// both the clock and lower.
func (s *Source) Next(lower histories.Timestamp) histories.Timestamp {
	for {
		cur := s.last.Load()
		next := (max(cur, int64(lower)) | (Stride - 1)) + 1
		if s.last.CompareAndSwap(cur, next) {
			return histories.Timestamp(next)
		}
	}
}

// ReadStamp returns a reader's timestamp: the first value of slot's
// sub-range of the gap above the clock that exceeds last, the slot's
// previous stamp (0 for none).  It loads the clock once and writes
// nothing.  ok is false — the caller then draws with Next — when slot lies
// beyond ReadSlots, when the slot's sub-range of this gap is used up, or
// when the clock sits mid-gap because Observe took it to a timestamp Next
// did not issue (an older log's, say).
func (s *Source) ReadStamp(slot uint64, last histories.Timestamp) (ts histories.Timestamp, ok bool) {
	if slot >= ReadSlots {
		return 0, false
	}
	cur := s.last.Load()
	if cur%Stride != 0 {
		return 0, false
	}
	lo := cur + int64(slot)*ReadRange // the sub-range is (lo, lo+ReadRange)
	next := max(int64(last), lo) + 1
	if next >= lo+ReadRange {
		return 0, false
	}
	return histories.Timestamp(next), true
}

// Observe implements Clock.
func (s *Source) Observe(ts histories.Timestamp) {
	for {
		cur := s.last.Load()
		if int64(ts) <= cur {
			return
		}
		if s.last.CompareAndSwap(cur, int64(ts)) {
			return
		}
	}
}

// Now returns the largest timestamp issued or observed so far.
func (s *Source) Now() histories.Timestamp {
	return histories.Timestamp(s.last.Load())
}

// NodeClock is a per-node logical clock for a system of n nodes.  Issued
// timestamps are congruent to the node index modulo the node count, so
// timestamps from different nodes can never collide — the standard
// (counter, node-id) Lamport pair packed into one integer, preserving the
// total order the paper requires.
type NodeClock struct {
	node  int64
	nodes int64
	last  atomic.Int64
}

// NewNodeClock returns the clock for node (0 ≤ node < nodes).
func NewNodeClock(node, nodes int) *NodeClock {
	if nodes <= 0 || node < 0 || node >= nodes {
		panic(fmt.Sprintf("tstamp: invalid node %d of %d", node, nodes))
	}
	c := &NodeClock{node: int64(node), nodes: int64(nodes)}
	c.last.Store(int64(node))
	return c
}

// Next implements Clock.
func (c *NodeClock) Next(lower histories.Timestamp) histories.Timestamp {
	for {
		cur := c.last.Load()
		floor := cur
		if int64(lower) > floor {
			floor = int64(lower)
		}
		// Smallest timestamp > floor congruent to c.node mod c.nodes.
		next := floor + 1
		rem := (next%c.nodes + c.nodes) % c.nodes
		next += (c.node - rem + c.nodes) % c.nodes
		if c.last.CompareAndSwap(cur, next) {
			return histories.Timestamp(next)
		}
	}
}

// Observe implements Clock.
func (c *NodeClock) Observe(ts histories.Timestamp) {
	for {
		cur := c.last.Load()
		if int64(ts) <= cur {
			return
		}
		if c.last.CompareAndSwap(cur, int64(ts)) {
			return
		}
	}
}

// Now returns the largest timestamp issued or observed so far.
func (c *NodeClock) Now() histories.Timestamp {
	return histories.Timestamp(c.last.Load())
}
