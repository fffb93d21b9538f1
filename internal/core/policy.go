package core

import (
	"fmt"

	"hybridcc/internal/ccpolicy"
	"hybridcc/internal/depend"
	"hybridcc/internal/histories"
	"hybridcc/internal/spec"
)

// An object's concurrency-control policies: it registers with a
// precompiled policy set — one conflict relation and compiled table per
// scheme — runs one of them, and installs a requested other one at the
// first instant no transaction holds a lock here (see Object.pending for
// the quiescence invariant).

// NewObject registers a fresh object named name with serial specification
// sp and the given symmetric conflict relation.  Correctness requires the
// conflict relation to be (the symmetric closure of) a dependency relation
// for sp — Theorems 11 and 17 make this condition both sufficient and
// necessary.
func (s *System) NewObject(name string, sp spec.Spec, conflict depend.Conflict) *Object {
	return s.NewObjectSeeded(name, sp, conflict, nil)
}

// NewObjectSeeded is NewObject with a declared finite operation universe,
// which the compiled conflict table is built from: its operations are
// granted by bitmask probes, and blocked calls of the invocations it
// covers get precise wakeup masks instead of conservative
// wake-on-every-commit.  Operations outside the universe take the
// dynamic-dispatch path against the conflict relation; under a nil
// universe (NewObject) every operation does.
func (s *System) NewObjectSeeded(name string, sp spec.Spec, conflict depend.Conflict, universe []spec.Op) *Object {
	set := ccpolicy.NewSet()
	set.Add("", conflict, universe)
	o, err := s.NewObjectPolicies(name, sp, set, "")
	if err != nil {
		panic("hybridcc: " + err.Error()) // unreachable: "" is in the set
	}
	return o
}

// NewObjectPolicies registers an object carrying a precompiled policy set:
// one conflict relation per scheme, each compiled up front so a runtime
// SetScheme is a pointer swap, never a recompile.  initial names the
// starting policy and must be a member of the set.  The set may be shared
// with other objects — the object only reads it, and keeps its own active
// and pending policy.
func (s *System) NewObjectPolicies(name string, sp spec.Spec, set *ccpolicy.Set, initial string) (*Object, error) {
	p := set.Get(initial)
	if p == nil {
		return nil, fmt.Errorf("hybridcc: object %s: initial scheme %q not in policy set (have %v)", name, initial, set.Schemes())
	}
	if s.remote != nil {
		// Mirror the registration onto the serving shard first: the shard
		// resolves the type by specification name and uses the policy set its
		// own process holds for the type.  The local struct below is a stub
		// for introspection and event recording — no operation ever touches
		// its lock state.
		if err := s.remoteRegister(name, sp, initial); err != nil {
			return nil, err
		}
	}
	o := &Object{sys: s, name: histories.ObjID(name), policies: set, policy: p}
	o.lockTable = lockTable{sys: s, stats: &o.stats, conflict: p.Conflict, table: p.Table}
	_, durable := sp.(spec.DurableSpec)
	o.versions.init(sp, s.log != nil && !durable)
	o.readSp, _ = sp.(spec.ReadSpec)
	s.registerObject(o)
	return o, nil
}

// Scheme returns the active policy's scheme name ("" for an object built
// from a bare conflict relation).
func (o *Object) Scheme() string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.policy.Scheme
}

// Schemes returns every scheme the object holds a precompiled policy for.
func (o *Object) Schemes() []string {
	return o.policies.Schemes()
}

// Policies returns the object's policy set: for a built-in type, the one
// set every object of the type shares.
func (o *Object) Policies() *ccpolicy.Set { return o.policies }

// SetScheme requests a switch of the object's active concurrency-control
// policy.  The switch installs at the first quiescent instant — no active
// lock holders — which SetScheme itself reaches when the object is idle;
// otherwise the request stays pending: new transactions are held back at
// this object (the drain barrier) while existing holders complete, and the
// completion that empties the active set installs the policy and wakes
// every parked waiter to re-derive under the new table.  Requesting the
// already-active scheme cancels any pending switch.  The error names the
// schemes available when the requested one was never registered.
func (o *Object) SetScheme(scheme string) error {
	p := o.policies.Get(scheme)
	if p == nil {
		return fmt.Errorf("hybridcc: object %s has no %q policy (have %v)", o.name, scheme, o.policies.Schemes())
	}
	if o.sys.remote != nil {
		// Switch on the serving shard, then mirror into the local stub so
		// Scheme() keeps answering accurately client-side.
		if err := o.sys.remote.SetScheme(string(o.name), scheme); err != nil {
			return err
		}
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if p == o.policy {
		if o.pending != nil {
			// Cancel the not-yet-installed switch and release the drain
			// barrier: parked first-timers can be granted again.
			o.pending = nil
			o.events++
			o.wakeScanLocked(nil, false, true, false)
		}
		return nil
	}
	o.pending = p
	o.maybeInstallPendingLocked()
	return nil
}

// maybeInstallPendingLocked installs the pending policy if the object is
// quiescent (no active lock holders) and reports whether no switch remains
// pending.  Completion paths that can empty the active set — commit,
// batch commit, abort — call it before releasing o.mu, as does the drain
// barrier itself, so the switch lands at the first quiescent instant
// without a dedicated background sweep.
func (o *Object) maybeInstallPendingLocked() bool {
	if o.pending == nil {
		return true
	}
	if o.holders() != 0 {
		return false
	}
	o.policy = o.pending
	o.pending = nil
	o.conflict = o.policy.Conflict
	o.table = o.policy.Table
	o.events++
	o.stats.schemeSwitches.Add(1)
	o.sys.stats.SchemeSwitches.Add(1)
	// Wake every waiter unconditionally: masks captured against the old
	// table are meaningless now, so each parked call re-derives and
	// re-captures its wakeup mask from the new table.
	o.wakeScanLocked(nil, false, true, false)
	return true
}
