package hybridcc

import (
	"errors"
	"fmt"
	"reflect"
	"sync"

	"hybridcc/internal/baseline"
	"hybridcc/internal/ccpolicy"
	"hybridcc/internal/core"
	"hybridcc/internal/depend"
	"hybridcc/internal/histories"
	"hybridcc/internal/spec"
)

// This file is the public face of the paper's central idea: lock conflicts
// are not built into the system, they are *derived from the data type's
// serial specification*.  A user describes a type as a Spec — a replay
// machine plus (optionally) a dependency relation — and NewCustom registers
// an object of that type under any of the three schemes.  The seven
// built-in types in objects.go are constructed through exactly this path.

// Op is a single operation: an invocation (Name, Arg) paired with its
// response Res.  Arguments and responses are string-encoded so operations
// are comparable, hashable, and printable.
type Op = spec.Op

// Invocation is the invocation part of an operation: a name and an encoded
// argument, without a response.
type Invocation = spec.Invocation

// State is the opaque state of a specification's replay machine.  States
// are values: Apply must never mutate its input.
type State = spec.State

// Errors returned by object registration.
var (
	// ErrDuplicateName reports a second object registered under a name the
	// System already knows.
	ErrDuplicateName = errors.New("hybridcc: duplicate object name")
	// ErrUnknownScheme reports a Scheme other than Hybrid, Commutativity,
	// or ReadWrite.
	ErrUnknownScheme = errors.New("hybridcc: unknown scheme")
	// ErrInvalidSpec reports a Spec missing required pieces for the
	// requested scheme.
	ErrInvalidSpec = errors.New("hybridcc: invalid specification")
	// ErrConflictingOptions reports object options that contradict each
	// other, e.g. two WithScheme options naming different schemes.
	ErrConflictingOptions = errors.New("hybridcc: conflicting object options")
)

// Spec is the serial specification of an abstract data type (Section 3.1
// of the paper): the behaviour of the type in the absence of concurrency
// and failures, given as a replay machine.  Name, Init, Responses, and
// Apply are required; everything else defaults.
//
// Conflict relations per scheme:
//
//   - Hybrid uses the symmetric closure of Dependency when set.  When nil,
//     a dependency relation is derived mechanically from the specification
//     (the invalidated-by relation of Definitions 8–9) over the finite
//     Universe, which must then be non-empty.
//   - Commutativity uses FailsToCommute when set, otherwise the
//     forward-commutativity derivation over Universe.
//   - ReadWrite classifies operations named in Readers as reads and
//     everything else as writes; a nil Readers map (all writes) is always
//     safe.
//
// Derived relations quantify only over Universe: operations outside it
// conservatively conflict with everything, so omitting operations from
// the universe costs concurrency, not correctness.  Within the universe
// the derivations explore histories exhaustively up to a bounded length
// (the depths at which the test suite reproduces the paper's tables over
// two-value domains).  A type whose conflicts only materialize in longer
// histories — say, a predicate that first becomes legal after six
// insertions — can exceed those bounds; such types should declare an
// explicit Dependency (and FailsToCommute) rather than rely on
// derivation.  Registering many objects from one derived Spec?  Call
// Derive once and reuse the result.
type Spec struct {
	// Name identifies the data type, e.g. "Leaderboard".
	Name string

	// Init returns the initial state.
	Init func() State

	// Responses enumerates every legal response to inv in state s, in a
	// deterministic order.  An empty slice means the invocation is blocked
	// in s — a partial operation, like Deq on an empty queue.
	Responses func(s State, inv Invocation) []string

	// Apply returns the successor state after the (legal) operation op.
	// It must not mutate s; the runtime only calls it with operations
	// whose response Responses listed.
	Apply func(s State, op Op) State

	// Equal reports whether two states are equal.  Nil defaults to
	// reflect.DeepEqual.
	Equal func(a, b State) bool

	// Dependency is an explicit dependency relation: Dependency(q, p)
	// reports whether a later operation q depends on an earlier p (the
	// paper writes (q, p) ∈ R).  Its symmetric closure becomes the Hybrid
	// conflict relation.  Correctness requires it to satisfy Definition 3
	// for this specification.
	Dependency func(q, p Op) bool

	// FailsToCommute reports whether two operations fail to
	// forward-commute; it becomes the Commutativity conflict relation.
	FailsToCommute func(a, b Op) bool

	// Readers names the operations that never modify state, for the
	// ReadWrite scheme.
	Readers map[string]bool

	// Universe is a finite set of operations over a small value domain,
	// used to derive conflict relations that were not given explicitly.
	// Each scheme's conflict table is compiled from exactly this set at
	// registration: its operations are granted by bitmask probes, and any
	// other operation takes the slower dynamic-dispatch path against the
	// relation.  A Spec holds funcs and has no identity to cache on, so
	// each registration compiles its own tables; a built-in type's are
	// compiled once per process and shared by all its objects.
	Universe []Op

	// Invocations is the invocation universe for the commutativity
	// derivation's equieffectiveness observations.  Nil defaults to the
	// distinct invocations of Universe.
	Invocations []Invocation

	// internal and policies short-circuit compilation for built-in types:
	// their hand-written replay machines are used directly, and every
	// object of a type shares the type's one policy set, so dogfooding the
	// public path costs the built-ins nothing.
	internal spec.Spec
	policies *ccpolicy.Set
}

// Bounds for mechanical conflict derivation, matching the depths at which
// the test suite reproduces the paper's tables over two-value domains.
const (
	deriveH1Len    = 3
	deriveH2Len    = 2
	deriveHLen     = 2
	deriveObsDepth = 2
)

// compile converts the public Spec into the internal replay-machine
// interface.
func (sp Spec) compile() (spec.Spec, error) {
	if sp.internal != nil {
		return sp.internal, nil
	}
	if sp.Name == "" {
		return nil, fmt.Errorf("%w: Name is required", ErrInvalidSpec)
	}
	if sp.Init == nil || sp.Responses == nil || sp.Apply == nil {
		return nil, fmt.Errorf("%w: %s needs Init, Responses, and Apply", ErrInvalidSpec, sp.Name)
	}
	eq := sp.Equal
	if eq == nil {
		eq = func(a, b State) bool { return reflect.DeepEqual(a, b) }
	}
	return &userSpec{
		name:      sp.Name,
		init:      sp.Init,
		responses: sp.Responses,
		apply:     sp.Apply,
		equal:     eq,
	}, nil
}

// Derive returns a copy of sp with any missing conflict relations filled
// in by the mechanical derivations over Universe.  The derivations are
// exponential in the universe size, and NewCustom runs them on every
// registration a relation is missing for — so when many objects share one
// specification, derive once and register the result:
//
//	sp, err := sp.Derive()
//	// ...
//	for i := 0; i < n; i++ {
//		sys.NewCustom(fmt.Sprintf("shard%d", i), sp)
//	}
func (sp Spec) Derive() (Spec, error) {
	if sp.Dependency != nil && sp.FailsToCommute != nil {
		return sp, nil
	}
	isp, err := sp.compile()
	if err != nil {
		return Spec{}, err
	}
	if len(sp.Universe) == 0 {
		return Spec{}, fmt.Errorf("%w: %s: Derive needs a finite Universe", ErrInvalidSpec, isp.Name())
	}
	if sp.Dependency == nil {
		sp.Dependency = depend.DeriveHybrid(isp, sp.Universe, deriveH1Len, deriveH2Len).Conflicts
	}
	if sp.FailsToCommute == nil {
		invs := sp.Invocations
		if len(invs) == 0 {
			invs = invocationsOf(sp.Universe)
		}
		sp.FailsToCommute = depend.DeriveCommutativity(isp, sp.Universe, invs, deriveHLen, deriveObsDepth).Conflicts
	}
	return sp, nil
}

// conflictFor builds the conflict relation for the scheme, deriving it
// from the compiled specification when the Spec gives no explicit one.
func (sp Spec) conflictFor(scheme Scheme, isp spec.Spec) (depend.Conflict, error) {
	name := isp.Name()
	switch scheme {
	case Hybrid:
		if sp.Dependency != nil {
			return depend.SymmetricClosure(depend.RelationFunc(name+"/dependency", sp.Dependency)), nil
		}
		if len(sp.Universe) > 0 {
			return depend.DeriveHybrid(isp, sp.Universe, deriveH1Len, deriveH2Len), nil
		}
		return nil, fmt.Errorf("%w: %s: Hybrid needs a Dependency relation or a finite Universe to derive one", ErrInvalidSpec, name)
	case Commutativity:
		if sp.FailsToCommute != nil {
			return depend.ConflictFunc(name+"/commutativity", sp.FailsToCommute), nil
		}
		if len(sp.Universe) > 0 {
			invs := sp.Invocations
			if len(invs) == 0 {
				invs = invocationsOf(sp.Universe)
			}
			return depend.DeriveCommutativity(isp, sp.Universe, invs, deriveHLen, deriveObsDepth), nil
		}
		return nil, fmt.Errorf("%w: %s: Commutativity needs FailsToCommute or a finite Universe to derive it", ErrInvalidSpec, name)
	case ReadWrite:
		readers := sp.Readers
		return depend.ReadWriteConflict("rw/"+name, func(op Op) depend.Mode {
			if readers[op.Name] {
				return depend.ModeRead
			}
			return depend.ModeWrite
		}), nil
	}
	return nil, fmt.Errorf("%w: %q", ErrUnknownScheme, scheme)
}

// explicitFor reports whether the Spec states the scheme's conflict
// relation explicitly, without mechanical derivation.  ReadWrite is always
// explicit: the Readers classification (even an empty one — all writes) is
// a complete relation.
func (sp Spec) explicitFor(scheme Scheme) bool {
	switch scheme {
	case Hybrid:
		return sp.Dependency != nil
	case Commutativity:
		return sp.FailsToCommute != nil
	case ReadWrite:
		return true
	}
	return false
}

// policySetFor builds the object's precompiled policy set: the initial
// scheme's relation — derived mechanically if the Spec permits — plus
// every other scheme whose relation the Spec states explicitly.
// Derivation is reserved for the initial scheme (and for Derive, which
// fills the explicit fields in) because it is exponential in the universe
// size: a Spec that should switch between all three schemes calls Derive
// once before registering.  Built-in types never come here: their shared
// sets are complete, from closed-form relations for all three schemes.
func (sp Spec) policySetFor(initial Scheme, isp spec.Spec) (*ccpolicy.Set, error) {
	set := ccpolicy.NewSet()
	for _, scheme := range []Scheme{ReadWrite, Commutativity, Hybrid} {
		if scheme != initial && !sp.explicitFor(scheme) {
			continue
		}
		conflict, err := sp.conflictFor(scheme, isp)
		if err != nil {
			if scheme == initial {
				return nil, err
			}
			continue
		}
		set.Add(string(scheme), conflict, sp.Universe)
	}
	return set, nil
}

// invocationsOf returns the distinct invocations of the operations, in
// first-appearance order.
func invocationsOf(universe []Op) []Invocation {
	seen := make(map[Invocation]bool, len(universe))
	invs := make([]Invocation, 0, len(universe))
	for _, op := range universe {
		if inv := op.Inv(); !seen[inv] {
			seen[inv] = true
			invs = append(invs, inv)
		}
	}
	return invs
}

// userSpec adapts a public Spec to the internal replay-machine interface.
// Step's legality check is delegated to Responses, so the two can never
// disagree.
type userSpec struct {
	name      string
	init      func() State
	responses func(State, Invocation) []string
	apply     func(State, Op) State
	equal     func(State, State) bool
}

func (u *userSpec) Name() string               { return u.name }
func (u *userSpec) Init() spec.State           { return u.init() }
func (u *userSpec) Equal(a, b spec.State) bool { return u.equal(a, b) }

func (u *userSpec) Step(s spec.State, op spec.Op) (spec.State, bool) {
	for _, r := range u.responses(s, op.Inv()) {
		if r == op.Res {
			return u.apply(s, op), true
		}
	}
	return nil, false
}

func (u *userSpec) Responses(s spec.State, inv spec.Invocation) []string {
	return u.responses(s, inv)
}

// Object is a handle on a registered object: typed shared data managed by
// the hybrid locking runtime.  Typed wrappers — the built-ins in this
// package, or user structs over NewCustom — embed or wrap an Object and
// translate between application values and encoded operations.  An Object
// is shard-aware: operations route through the Txn/ReadTxn interfaces to
// the branch on whichever System (a standalone one, or one shard of a
// Cluster) owns the object.
type Object struct{ obj *core.Object }

// Name returns the object's registered name.
func (o *Object) Name() string { return string(o.obj.Name()) }

// Call invokes inv on behalf of tx and blocks until a response is
// grantable: legal in tx's view and conflict-free against other active
// transactions.  It returns ErrTimeout when the wait exceeds the lock-wait
// bound, and an error wrapping the transaction context's error on
// cancellation.
func (o *Object) Call(tx Txn, inv Invocation) (string, error) {
	br, err := tx.Branch(o.obj)
	if err != nil {
		return "", err
	}
	return o.obj.Call(br, inv)
}

// ReadCall executes a read-only operation against the object's state as of
// the reader's timestamp, without acquiring locks.
func (o *Object) ReadCall(r ReadTxn, inv Invocation) (string, error) {
	br, err := r.Branch(o.obj)
	if err != nil {
		return "", err
	}
	return o.obj.ReadCall(br, inv)
}

// CommittedState returns the state produced by all committed transactions
// in timestamp order, for inspection outside transactions.
func (o *Object) CommittedState() State { return o.obj.CommittedState() }

// Stats returns a snapshot of the object's counters.
func (o *Object) Stats() ObjectStats { return o.obj.Stats() }

// Scheme returns the object's active concurrency-control scheme.  After
// SetScheme it can differ from the scheme the object was registered with.
func (o *Object) Scheme() Scheme { return Scheme(o.obj.Scheme()) }

// Schemes returns every scheme the object carries a precompiled policy
// for — the set SetScheme chooses from.
func (o *Object) Schemes() []string { return o.obj.Schemes() }

// SetScheme switches the object's concurrency-control scheme at runtime.
// The switch installs at a quiescent point — no transaction holding locks
// at the object — reached by draining: existing holders run to completion
// while new transactions wait at this object, then every waiter re-derives
// under the new conflict table.  All schemes in the object's policy set
// preserve hybrid atomicity; switching trades concurrency, not
// correctness.  It errors when the object carries no policy for the
// scheme (see Spec.Derive for making every scheme available on a custom
// type).
//
// On a System or an in-process Cluster a switch lasts for this process:
// Open and OpenCluster log no switch, so a reopened object runs the scheme
// its setup registers it under (replay re-applies committed operations
// without conflict checks, so it needs none).  A dialed shard server logs
// the switch in its catalog and restores it when it restarts.
func (o *Object) SetScheme(s Scheme) error { return o.obj.SetScheme(string(s)) }

// ObjectStats is a snapshot of an object's counters.
type ObjectStats = core.ObjectStatsSnapshot

// Obj is a typed view of an Object whose states have concrete type S: it
// adds state accessors that return S instead of the opaque State.
type Obj[S any] struct{ *Object }

// Typed wraps o in a typed handle.  The object's states must have dynamic
// type S — normally guaranteed by the Spec's Init and Apply returning S.
func Typed[S any](o *Object) Obj[S] { return Obj[S]{Object: o} }

// Committed returns the committed state as its concrete type.
func (o Obj[S]) Committed() S { return o.Object.CommittedState().(S) }

// registry tracks the specifications of registered objects for duplicate
// detection and offline verification.  A System has one; a Cluster shares
// one across all of its shards, so names are unique cluster-wide and
// Verify sees every object.
type registry struct {
	mu    sync.Mutex
	specs histories.SpecMap
}

func newRegistry() *registry { return &registry{specs: make(histories.SpecMap)} }

// add records name's specification, failing on duplicates.
func (r *registry) add(name string, isp spec.Spec) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.specs[histories.ObjID(name)]; dup {
		return fmt.Errorf("%w: %q", ErrDuplicateName, name)
	}
	r.specs[histories.ObjID(name)] = isp
	return nil
}

// snapshot copies the registered specifications.
func (r *registry) snapshot() histories.SpecMap {
	r.mu.Lock()
	defer r.mu.Unlock()
	specs := make(histories.SpecMap, len(r.specs))
	for k, v := range r.specs {
		specs[k] = v
	}
	return specs
}

// newCustomOn registers an object on sys, recording its specification in
// reg — the registration path shared by System.NewCustom and
// Cluster.NewCustom, in-process or dialed.  An object of a built-in type
// gets its type's shared policy set; a custom Spec's is compiled per
// object.
func newCustomOn(sys *core.System, reg *registry, name string, sp Spec, opts []ObjectOption) (*Object, error) {
	if name == "" {
		return nil, fmt.Errorf("%w: empty object name", ErrInvalidSpec)
	}
	isp, err := sp.compile()
	if err != nil {
		return nil, err
	}
	scheme, err := schemeOf(opts)
	if err != nil {
		return nil, err
	}
	// The full policy set holds every scheme the Spec can express, each
	// scheme's conflict table built from the declared universe and never
	// changed afterwards, so a later SetScheme is a pointer swap at a
	// quiescent point, never a recompile.  A built-in type's set is compiled
	// once per process and shared by every object of the type; a custom
	// Spec holds funcs and has no identity to key such a cache on, so its
	// set is compiled here, at every registration.  Open universes (nil)
	// are fine — every operation then takes the dynamic-dispatch path
	// against the conflict relation.
	set := sp.policies
	if set == nil {
		if set, err = sp.policySetFor(scheme, isp); err != nil {
			return nil, err
		}
	}
	if sys.HasUnclaimedRecovery(name) {
		// Recovery replay already ran and had to skip this object's logged
		// commits; accepting the registration now would resurrect the object
		// empty — silent data loss.
		return nil, fmt.Errorf("hybridcc: object %q has committed operations in the recovered log but was registered after recovery; register it inside the Open setup callback", name)
	}
	if err := reg.add(name, isp); err != nil {
		return nil, err
	}
	obj, err := sys.NewObjectPolicies(name, isp, set, string(scheme))
	if err != nil {
		return nil, err
	}
	return &Object{obj: obj}, nil
}

// NewCustom registers an object named name whose behaviour is given by the
// user-defined serial specification sp, under the scheme selected by opts
// (default Hybrid).  It fails with ErrDuplicateName, ErrUnknownScheme, or
// ErrInvalidSpec — never a panic — so callers can register types supplied
// at runtime.
func (s *System) NewCustom(name string, sp Spec, opts ...ObjectOption) (*Object, error) {
	return newCustomOn(s.inner, s.reg, name, sp, opts)
}

// builtinSpec expresses a built-in type as a public Spec carrying the
// type's replay machine and its one policy set — the paper's closed-form
// dependency and commutativity relations and the read/write
// classification, compiled once per process (baseline.DescriptorFor).  The
// seven typed constructors feed these through NewCustom, so the built-ins
// exercise the same path as user-defined types.
func builtinSpec(typeName string) Spec {
	d, ok := baseline.DescriptorFor(typeName)
	if !ok {
		panic("hybridcc: no built-in type " + typeName) // unreachable: callers pass literals
	}
	return Spec{Name: typeName, internal: d.Spec, policies: d.Policies}
}

// Must returns v, panicking when err is non-nil.  It collapses constructor
// error handling during setup whose failure is a programming error:
//
//	acct := hybridcc.Must(sys.NewAccount("checking"))
func Must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
