// Package verify records runtime histories and checks them offline against
// the paper's correctness conditions.  The core runtime emits every
// accepted event to a Recorder; tests and the model-checking tool then
// assert well-formedness, hybrid atomicity (linear-time: replay in
// timestamp order), and — for small histories — online hybrid atomicity
// (exponential, by enumeration).
package verify

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"hybridcc/internal/histories"
)

// recorderStripes is the number of independently locked buckets a Recorder
// spreads events over.  Sixteen keeps any two concurrent recording
// goroutines on distinct mutexes with high probability while the merge in
// History stays trivial.
const recorderStripes = 16

// seqEvent is an event tagged with its acceptance sequence number.
type seqEvent struct {
	seq   uint64
	event histories.Event
}

// recorderStripe is one bucket of a striped Recorder.  The padding rounds
// the struct up to 64 bytes (mutex 8 + slice header 24 + pad 32) so
// neighbouring stripes live on distinct cache lines and concurrent
// appends do not false-share.
type recorderStripe struct {
	mu     sync.Mutex
	events []seqEvent
	_      [32]byte
}

// Recorder accumulates events; it is safe for concurrent use and
// implements core.SeqSink, the runtime's one event sink.
//
// The runtime assigns each event a sequence number from NextSeq at the
// moment the event is accepted (under the owning object's mutex) and
// delivers it — possibly later, possibly from another goroutine — through
// RecordSeq.  Events land on stripes keyed by sequence number, so
// concurrent deliveries contend only one-in-recorderStripes of the time;
// History merges the stripes by sequence number, reproducing exactly the
// acceptance order.  Per-object event order is preserved because sequence
// numbers are drawn while the object's mutex is held; per-transaction
// order across objects is preserved because transactions are
// single-threaded and the sequence counter is a single atomic word (its
// modification order is consistent with real time).
type Recorder struct {
	seq     atomic.Uint64
	stripes [recorderStripes]recorderStripe
}

// NewRecorder returns an empty Recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// NextSeq draws the next acceptance sequence number.
func (r *Recorder) NextSeq() uint64 { return r.seq.Add(1) }

// RecordSeq stores an event under an acceptance sequence number drawn from
// NextSeq.  Deliveries may arrive out of order and from any goroutine;
// History restores the acceptance order.
func (r *Recorder) RecordSeq(seq uint64, e histories.Event) {
	st := &r.stripes[seq%recorderStripes]
	st.mu.Lock()
	st.events = append(st.events, seqEvent{seq: seq, event: e})
	st.mu.Unlock()
}

// Record appends an event at the next sequence number, equivalent to
// RecordSeq(NextSeq(), e): for events recorded outside the runtime.
func (r *Recorder) Record(e histories.Event) {
	r.RecordSeq(r.NextSeq(), e)
}

// History returns a copy of the recorded history in acceptance order.
func (r *Recorder) History() histories.History {
	var all []seqEvent
	for i := range r.stripes {
		st := &r.stripes[i]
		st.mu.Lock()
		all = append(all, st.events...)
		st.mu.Unlock()
	}
	sort.Slice(all, func(i, j int) bool { return all[i].seq < all[j].seq })
	out := make(histories.History, len(all))
	for i, se := range all {
		out[i] = se.event
	}
	return out
}

// Len reports the number of recorded events.
func (r *Recorder) Len() int {
	n := 0
	for i := range r.stripes {
		st := &r.stripes[i]
		st.mu.Lock()
		n += len(st.events)
		st.mu.Unlock()
	}
	return n
}

// Reset discards all recorded events.  The sequence counter keeps running:
// events recorded after a Reset still sort after everything before it.
func (r *Recorder) Reset() {
	for i := range r.stripes {
		st := &r.stripes[i]
		st.mu.Lock()
		st.events = nil
		st.mu.Unlock()
	}
}

// CheckHybridAtomic verifies that h is well-formed and hybrid atomic:
// permanent(h) serializable in timestamp order.  The check is linear in the
// history (one replay per object), so it scales to stress-test histories.
func CheckHybridAtomic(h histories.History, specs histories.SpecMap) error {
	if err := histories.WellFormed(h); err != nil {
		return fmt.Errorf("verify: ill-formed history: %w", err)
	}
	ok, err := histories.HybridAtomic(h, specs)
	if err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	if !ok {
		return fmt.Errorf("verify: history is not hybrid atomic (%d events, %d committed)",
			len(h), len(histories.Committed(h)))
	}
	return nil
}

// CheckGeneralizedHybridAtomic verifies well-formedness and hybrid
// atomicity under the Section 7 generalization: transactions classified
// read-only chose their timestamps at start, so the precedes constraint is
// waived for them; serializability in timestamp order is still required of
// everything, readers included.
func CheckGeneralizedHybridAtomic(h histories.History, specs histories.SpecMap, isReadOnly func(histories.TxID) bool) error {
	return CheckGeneralizedHybridAtomicFrom(h, specs, nil, isReadOnly)
}

// CheckGeneralizedHybridAtomicFrom is CheckGeneralizedHybridAtomic with
// per-object starting states: after a recovery that seeded objects from a
// checkpoint, the recorded history replays from those bases rather than
// from each specification's initial state.
func CheckGeneralizedHybridAtomicFrom(h histories.History, specs histories.SpecMap, bases histories.StateMap, isReadOnly func(histories.TxID) bool) error {
	if err := histories.WellFormedReadOnly(h, isReadOnly); err != nil {
		return fmt.Errorf("verify: ill-formed history: %w", err)
	}
	ok, err := histories.HybridAtomicFrom(h, specs, bases)
	if err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	if !ok {
		return fmt.Errorf("verify: history is not hybrid atomic (%d events, %d committed)",
			len(h), len(histories.Committed(h)))
	}
	return nil
}

// CheckOnlineHybridAtomic verifies the stronger online property by
// enumeration over commit sets and consistent total orders.  Exponential;
// use only on small model-checking histories.
func CheckOnlineHybridAtomic(h histories.History, specs histories.SpecMap) error {
	if err := histories.WellFormed(h); err != nil {
		return fmt.Errorf("verify: ill-formed history: %w", err)
	}
	ok, err := histories.OnlineHybridAtomic(h, specs)
	if err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	if !ok {
		return fmt.Errorf("verify: history is not online hybrid atomic")
	}
	return nil
}
