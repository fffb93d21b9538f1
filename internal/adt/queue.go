package adt

import "hybridcc/internal/spec"

// queueState is an immutable FIFO queue of encoded items, front first.
// Steps always copy; states are never mutated in place.
type queueState struct{ items []string }

// Queue is the paper's FIFO Queue (Section 4.3, Tables II and III): Enq
// appends an item, Deq removes and returns the item at the front.  Deq is
// partial — it has no legal response when the queue is empty (it blocks).
type Queue struct{}

// NewQueue returns the Queue serial specification.
func NewQueue() Queue { return Queue{} }

// Name implements spec.Spec.
func (Queue) Name() string { return "Queue" }

// Init implements spec.Spec.
func (Queue) Init() spec.State { return queueState{} }

// Step implements spec.Spec.
func (Queue) Step(s spec.State, op spec.Op) (spec.State, bool) {
	st := s.(queueState)
	switch op.Name {
	case "Enq":
		if op.Res != ResOk {
			return nil, false
		}
		items := make([]string, len(st.items)+1)
		copy(items, st.items)
		items[len(st.items)] = op.Arg
		return queueState{items: items}, true
	case "Deq":
		if op.Arg != "" || len(st.items) == 0 || st.items[0] != op.Res {
			return nil, false
		}
		items := make([]string, len(st.items)-1)
		copy(items, st.items[1:])
		return queueState{items: items}, true
	}
	return nil, false
}

// Responses implements spec.Spec.
func (Queue) Responses(s spec.State, inv spec.Invocation) []string {
	st := s.(queueState)
	switch inv.Name {
	case "Enq":
		return respOk
	case "Deq":
		if inv.Arg != "" || len(st.items) == 0 {
			return nil
		}
		return []string{st.items[0]}
	}
	return nil
}

// ConstantResponse implements spec.ConstantSpec: Enq is always Ok.
func (Queue) ConstantResponse(inv spec.Invocation) (string, bool) { return okIf(inv.Name == "Enq") }

// Equal implements spec.Spec.
func (Queue) Equal(a, b spec.State) bool {
	qa, qb := a.(queueState), b.(queueState)
	if len(qa.items) != len(qb.items) {
		return false
	}
	for i := range qa.items {
		if qa.items[i] != qb.items[i] {
			return false
		}
	}
	return true
}

// QueueItems extracts the queued items (front first) from a Queue state.
func QueueItems(s spec.State) []int64 {
	st := s.(queueState)
	out := make([]int64, len(st.items))
	for i, it := range st.items {
		out[i] = Atoi(it)
	}
	return out
}

// QueueLen reports the number of items in a Queue state.
func QueueLen(s spec.State) int { return len(s.(queueState).items) }
