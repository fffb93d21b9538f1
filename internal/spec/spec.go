// Package spec models operations and serial specifications of abstract data
// types, following Section 3.1 of Herlihy & Weihl, "Hybrid Concurrency
// Control for Abstract Data Types" (JCSS 43(1), 1991).
//
// An operation is an (invocation, response) pair: the invocation carries the
// operation name and its arguments, and the response carries the result
// value.  A serial specification is a prefix-closed set of operation
// sequences; it defines the behaviour of an object in the absence of
// concurrency and failures.
//
// Specifications are represented as replay machines: a sequence is legal iff
// it can be replayed step by step from the initial state.  The
// (invocation, response) pair determines each transition uniquely, so
// non-determinism appears only as multiple legal responses to one invocation
// (Responses), and partial operations appear as invocations with no legal
// response in a given state (the paper's blocking Deq on an empty queue).
package spec

import (
	"fmt"
	"strings"
)

// Op is a single operation: an invocation (Name, Arg) paired with a
// response Res.  Arguments and responses are string-encoded so operations
// are comparable, hashable, and printable; typed constructors live in the
// adt package and the public facade.
type Op struct {
	Name string // operation name, e.g. "Enq"
	Arg  string // encoded argument, "" if none
	Res  string // encoded response, e.g. "Ok" or an item value
}

// Inv returns the invocation part of the operation.
func (o Op) Inv() Invocation { return Invocation{Name: o.Name, Arg: o.Arg} }

// String renders the operation in the paper's style, e.g. "[Enq(3), Ok]".
func (o Op) String() string {
	if o.Arg == "" {
		return fmt.Sprintf("[%s(), %s]", o.Name, o.Res)
	}
	return fmt.Sprintf("[%s(%s), %s]", o.Name, o.Arg, o.Res)
}

// Invocation is the invocation part of an operation: a name and encoded
// arguments, without a response.
type Invocation struct {
	Name string
	Arg  string
}

// With pairs the invocation with a response, yielding an operation.
func (i Invocation) With(res string) Op { return Op{Name: i.Name, Arg: i.Arg, Res: res} }

// String renders the invocation, e.g. "Enq(3)".
func (i Invocation) String() string {
	if i.Arg == "" {
		return i.Name + "()"
	}
	return fmt.Sprintf("%s(%s)", i.Name, i.Arg)
}

// State is the (immutable) state of a specification's replay machine.
// Implementations must be usable as values: Step never mutates its input
// state, and states must be comparable with == or provide structural
// equality via the Spec's Equal method.
type State interface{}

// Spec is a serial specification, represented as a replay machine.  The set
// of legal sequences is exactly the set of sequences accepted by replaying
// from Init; prefix closure (required by the paper) holds by construction.
type Spec interface {
	// Name identifies the data type, e.g. "Queue".
	Name() string

	// Init returns the initial state.
	Init() State

	// Step applies op to s.  It returns the successor state and true when
	// the operation is legal in s, or the zero State and false otherwise.
	// Step must not mutate s.
	Step(s State, op Op) (State, bool)

	// Responses enumerates every response r such that the operation
	// inv.With(r) is legal in state s.  An empty slice means the
	// invocation is blocked (a partial operation, like Deq on an empty
	// queue).  The order is deterministic.  The returned slice is
	// immutable: callers must not modify it, and implementations may
	// return a shared slice (the hot path relies on it).
	Responses(s State, inv Invocation) []string

	// Equal reports whether two states are equal.  It is used by bounded
	// equieffectiveness checks as a fast path and by tests.
	Equal(a, b State) bool
}

// DurableSpec is the optional durability capability on a Spec: a spec
// that can render its states as byte images lets the checkpointer store a
// committed state directly instead of the committed-operations sequence
// that produced it, so recovery seeds the object without replaying
// history.  Encoding must be deterministic (equal states encode equal
// bytes) and DecodeState must invert EncodeState for every state
// reachable by Replay.  Specs without this capability still checkpoint —
// the engine falls back to a compacted committed-operations image.
type DurableSpec interface {
	Spec

	// EncodeState renders a reachable state as a deterministic byte image.
	EncodeState(s State) ([]byte, error)

	// DecodeState inverts EncodeState.  It must fail (not panic) on bytes
	// EncodeState cannot have produced — checkpoint blobs cross a crash.
	DecodeState(data []byte) (State, error)
}

// ReadSpec is the optional read capability on a Spec: a spec that knows
// which of its invocations are pure observers answers them in one step,
// where the generic derivation of a read-only response takes Responses,
// Step and Equal.  Specs without this capability are still read through
// that derivation.
type ReadSpec interface {
	Spec

	// ReadResponse returns the response to inv in s and true when inv is
	// a well-formed pure observer of the type: res is then Responses(s,
	// inv)[0], and Step(s, inv.With(res)) is legal and leaves s unchanged.
	// It returns false for every other invocation, including one that
	// happens not to change this particular state.
	ReadResponse(s State, inv Invocation) (res string, ok bool)
}

// ConstantSpec is the optional constant-response capability on a Spec:
// the response to such an invocation is known before it runs, so a dialed
// transaction sends it without waiting for its reply.
type ConstantSpec interface {
	Spec

	// ConstantResponse returns res and true when Responses(s, inv) is
	// exactly [res] in every state s, and false for any other invocation.
	ConstantResponse(inv Invocation) (res string, ok bool)
}

// Replay runs h from the initial state of sp.  It returns the final state
// and true if every operation is legal, or the state reached before the
// first illegal operation and false otherwise.
func Replay(sp Spec, h []Op) (State, bool) {
	s := sp.Init()
	for _, op := range h {
		next, ok := sp.Step(s, op)
		if !ok {
			return s, false
		}
		s = next
	}
	return s, true
}

// Legal reports whether the operation sequence h belongs to the serial
// specification sp.
func Legal(sp Spec, h []Op) bool {
	_, ok := Replay(sp, h)
	return ok
}

// LegalAfter reports whether h followed by more is legal.  It is the
// h • more notation of the paper.
func LegalAfter(sp Spec, h []Op, more ...Op) bool {
	s, ok := Replay(sp, h)
	if !ok {
		return false
	}
	for _, op := range more {
		s, ok = sp.Step(s, op)
		if !ok {
			return false
		}
	}
	return true
}

// StepFrom replays more starting from state s.  It returns the final state
// and whether every step was legal.
func StepFrom(sp Spec, s State, more ...Op) (State, bool) {
	for _, op := range more {
		next, ok := sp.Step(s, op)
		if !ok {
			return s, false
		}
		s = next
	}
	return s, true
}

// Concat returns the concatenation h • k as a fresh slice (the paper's "•").
func Concat(seqs ...[]Op) []Op {
	n := 0
	for _, s := range seqs {
		n += len(s)
	}
	out := make([]Op, 0, n)
	for _, s := range seqs {
		out = append(out, s...)
	}
	return out
}

// SeqString renders an operation sequence, e.g. "[Enq(1), Ok] [Deq(), 1]".
func SeqString(h []Op) string {
	if len(h) == 0 {
		return "ε"
	}
	parts := make([]string, len(h))
	for i, op := range h {
		parts[i] = op.String()
	}
	return strings.Join(parts, " ")
}

// SeqEqual reports whether two operation sequences are identical.
func SeqEqual(a, b []Op) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// IsPrefix reports whether g is a prefix of h.
func IsPrefix(g, h []Op) bool {
	if len(g) > len(h) {
		return false
	}
	for i := range g {
		if g[i] != h[i] {
			return false
		}
	}
	return true
}

// IsSubsequence reports whether g is a (not necessarily contiguous)
// subsequence of h, as used by the R-closed / R-view definitions.
func IsSubsequence(g, h []Op) bool {
	j := 0
	for i := 0; i < len(h) && j < len(g); i++ {
		if h[i] == g[j] {
			j++
		}
	}
	return j == len(g)
}

// Equieffective reports whether h and k cannot be distinguished by any
// future computation of length at most depth drawn from the invocation
// universe (Definition 25, bounded).  Both h and k must be legal.  The check
// explores every legal extension of either sequence and requires the other
// to admit exactly the same extensions.
//
// A fast path treats equal final states as equieffective, which is sound for
// replay-machine specifications (legality depends only on state).
func Equieffective(sp Spec, h, k []Op, universe []Invocation, depth int) bool {
	sh, ok := Replay(sp, h)
	if !ok {
		panic("spec: Equieffective called with illegal h")
	}
	sk, ok := Replay(sp, k)
	if !ok {
		panic("spec: Equieffective called with illegal k")
	}
	return StatesEquieffective(sp, sh, sk, universe, depth)
}

// StatesEquieffective reports whether no future computation of length at
// most depth (drawn from the invocation universe) distinguishes states a
// and b.  Equal states are trivially equieffective.
func StatesEquieffective(sp Spec, a, b State, universe []Invocation, depth int) bool {
	if sp.Equal(a, b) {
		return true
	}
	if depth == 0 {
		// Out of observation budget: cannot distinguish within bound.
		return true
	}
	for _, inv := range universe {
		ra := sp.Responses(a, inv)
		rb := sp.Responses(b, inv)
		if !stringSetEqual(ra, rb) {
			return false
		}
		for _, r := range ra {
			na, _ := sp.Step(a, inv.With(r))
			nb, _ := sp.Step(b, inv.With(r))
			if !StatesEquieffective(sp, na, nb, universe, depth-1) {
				return false
			}
		}
	}
	return true
}

func stringSetEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	seen := make(map[string]int, len(a))
	for _, s := range a {
		seen[s]++
	}
	for _, s := range b {
		seen[s]--
		if seen[s] < 0 {
			return false
		}
	}
	return true
}
