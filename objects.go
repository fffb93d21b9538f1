package hybridcc

import (
	"fmt"

	"hybridcc/internal/adt"
)

// The seven built-in types are thin typed wrappers over the public
// custom-ADT path: each constructor feeds its paper specification (as a
// public Spec, see builtinSpec) through NewCustom and wraps the resulting
// Object handle with typed methods.

// registrar is anything objects can be registered on: a System, or a
// Cluster (which places them on the owning shard).  The built-in typed
// constructors of both delegate to newBuiltin, so the spec-name/wrapper
// pairing of each type is stated exactly once.
type registrar interface {
	NewCustom(name string, sp Spec, opts ...ObjectOption) (*Object, error)
}

// newBuiltin registers a built-in type's object on r and wraps it.
func newBuiltin[T any](r registrar, name, typeName string, wrap func(*Object) *T, opts []ObjectOption) (*T, error) {
	obj, err := r.NewCustom(name, builtinSpec(typeName), opts...)
	if err != nil {
		return nil, err
	}
	return wrap(obj), nil
}

func wrapAccount(o *Object) *Account     { return &Account{obj: o} }
func wrapQueue(o *Object) *Queue         { return &Queue{obj: o} }
func wrapSemiqueue(o *Object) *Semiqueue { return &Semiqueue{obj: o} }
func wrapFile(o *Object) *File           { return &File{obj: o} }
func wrapCounter(o *Object) *Counter     { return &Counter{obj: o} }
func wrapSet(o *Object) *Set             { return &Set{obj: o} }
func wrapDirectory(o *Object) *Directory { return &Directory{obj: o} }

// readState is ReadCall for a built-in type's typed getter: inv is the
// type's pure observer, and the getter takes its answer off the returned
// snapshot state through an adt accessor, so no response string is
// formatted only to be parsed back.  A dialed object has no local state:
// the state is nil and its shard's response string is the answer.
func (o *Object) readState(r ReadTxn, inv Invocation) (State, string, error) {
	br, err := r.Branch(o.obj)
	if err != nil {
		return nil, "", err
	}
	return o.obj.ReadState(br, inv)
}

// readInt is readState for an integer getter.
func (o *Object) readInt(r ReadTxn, inv Invocation, valueOf func(State) int64) (int64, error) {
	state, res, err := o.readState(r, inv)
	if err != nil {
		return 0, err
	}
	if state == nil {
		return adt.Atoi(res), nil
	}
	return valueOf(state), nil
}

// callAtLeast is Call for an operation whose integer argument arg must be
// at least min: one outside that domain is refused before any call.
func (o *Object) callAtLeast(tx Txn, inv Invocation, arg, min int64) (string, error) {
	if arg < min {
		return "", fmt.Errorf("%w: %s on %s: want ≥ %d", ErrInvalidArgument, inv, o.Name(), min)
	}
	return o.Call(tx, inv)
}

// Account is a bank account with Credit, Post (interest), and Debit
// operations (the paper's Section 4.3 Account and appendix example).  Under
// the Hybrid scheme, credits never conflict with other credits, with
// posts, or with successful debits; only attempted overdrafts and pairs of
// successful debits conflict (Table V).
type Account struct{ obj *Object }

// NewAccount creates an account object.
func (s *System) NewAccount(name string, opts ...ObjectOption) (*Account, error) {
	return newBuiltin(s, name, "Account", wrapAccount, opts)
}

// Credit adds amount (≥ 0) to the balance.
func (a *Account) Credit(tx Txn, amount int64) error {
	_, err := a.obj.callAtLeast(tx, adt.CreditInv(amount), amount, 0)
	return err
}

// Post multiplies the balance by factor (≥ 1) — posting interest (see the
// package documentation for the integer-factor substitution).
func (a *Account) Post(tx Txn, factor int64) error {
	_, err := a.obj.callAtLeast(tx, adt.PostInv(factor), factor, 1)
	return err
}

// Debit withdraws amount (≥ 0) if the balance covers it.  It returns
// false (and no error) when the debit is refused with an Overdraft,
// leaving the balance unchanged.
func (a *Account) Debit(tx Txn, amount int64) (bool, error) {
	res, err := a.obj.callAtLeast(tx, adt.DebitInv(amount), amount, 0)
	if err != nil {
		return false, err
	}
	return res == adt.ResOk, nil
}

// CommittedBalance returns the balance of the committed state, for
// inspection outside transactions.
func (a *Account) CommittedBalance() int64 {
	return adt.AccountBalance(a.obj.CommittedState())
}

// Queue is a FIFO queue (Tables II and III).  The Hybrid scheme uses the
// Table II conflicts: enqueues never conflict, so producers run fully
// concurrently; dequeues serialize against enqueues of other items.  The
// Commutativity scheme uses the incomparable Table III conflicts, which
// instead let one dequeuer overlap one enqueuer.
type Queue struct{ obj *Object }

// NewQueue creates a queue object.
func (s *System) NewQueue(name string, opts ...ObjectOption) (*Queue, error) {
	return newBuiltin(s, name, "Queue", wrapQueue, opts)
}

// Enq appends item to the queue.
func (q *Queue) Enq(tx Txn, item int64) error {
	_, err := q.obj.Call(tx, adt.EnqInv(item))
	return err
}

// Deq removes and returns the front item.  It blocks (up to the lock-wait
// bound) while the queue is empty — Deq is a partial operation.
func (q *Queue) Deq(tx Txn) (int64, error) {
	res, err := q.obj.Call(tx, adt.DeqInv())
	if err != nil {
		return 0, err
	}
	return adt.Atoi(res), nil
}

// CommittedItems returns the committed queue contents, front first.
func (q *Queue) CommittedItems() []int64 {
	return adt.QueueItems(q.obj.CommittedState())
}

// Semiqueue is a weakly ordered queue (Table IV): Rem removes an arbitrary
// item rather than the oldest.  The non-determinism buys concurrency —
// removers conflict only when they take the same item, and inserts never
// conflict with anything.
type Semiqueue struct{ obj *Object }

// NewSemiqueue creates a semiqueue object.
func (s *System) NewSemiqueue(name string, opts ...ObjectOption) (*Semiqueue, error) {
	return newBuiltin(s, name, "Semiqueue", wrapSemiqueue, opts)
}

// Ins inserts item.
func (q *Semiqueue) Ins(tx Txn, item int64) error {
	_, err := q.obj.Call(tx, adt.InsInv(item))
	return err
}

// Rem removes and returns some item; it blocks while the semiqueue is
// empty.
func (q *Semiqueue) Rem(tx Txn) (int64, error) {
	res, err := q.obj.Call(tx, adt.RemInv())
	if err != nil {
		return 0, err
	}
	return adt.Atoi(res), nil
}

// CommittedSize returns the number of committed items.
func (q *Semiqueue) CommittedSize() int {
	return adt.SemiqueueSize(q.obj.CommittedState())
}

// File is a read/write register (Table I).  Under the Hybrid scheme writes
// never conflict with each other — the generalized Thomas Write Rule: later
// transactions read the value written by the transaction with the later
// commit timestamp.
type File struct{ obj *Object }

// NewFile creates a file object with initial value 0.
func (s *System) NewFile(name string, opts ...ObjectOption) (*File, error) {
	return newBuiltin(s, name, "File", wrapFile, opts)
}

// Write replaces the file's value.
func (f *File) Write(tx Txn, value int64) error {
	_, err := f.obj.Call(tx, adt.FileWriteInv(value))
	return err
}

// Read returns the file's value.
func (f *File) Read(tx Txn) (int64, error) {
	res, err := f.obj.Call(tx, adt.FileReadInv())
	if err != nil {
		return 0, err
	}
	return adt.Atoi(res), nil
}

// CommittedValue returns the committed value.
func (f *File) CommittedValue() int64 {
	return adt.FileValue(f.obj.CommittedState())
}

// ReadAt returns the file's value as of the read-only transaction's
// timestamp, without acquiring any locks.
func (f *File) ReadAt(r ReadTxn) (int64, error) {
	return f.obj.readInt(r, adt.FileReadInv(), adt.FileValue)
}

// Counter is an increment-only counter with a read operation; increments
// never conflict with one another.
type Counter struct{ obj *Object }

// NewCounter creates a counter object starting at zero.
func (s *System) NewCounter(name string, opts ...ObjectOption) (*Counter, error) {
	return newBuiltin(s, name, "Counter", wrapCounter, opts)
}

// Inc adds n (≥ 0) to the counter.
func (c *Counter) Inc(tx Txn, n int64) error {
	_, err := c.obj.callAtLeast(tx, adt.IncInv(n), n, 0)
	return err
}

// Read returns the current count.
func (c *Counter) Read(tx Txn) (int64, error) {
	res, err := c.obj.Call(tx, adt.CtrReadInv())
	if err != nil {
		return 0, err
	}
	return adt.Atoi(res), nil
}

// CommittedValue returns the committed count.
func (c *Counter) CommittedValue() int64 {
	return adt.CounterValue(c.obj.CommittedState())
}

// ReadAt returns the count as of the read-only transaction's timestamp.
func (c *Counter) ReadAt(r ReadTxn) (int64, error) {
	return c.obj.readInt(r, adt.CtrReadInv(), adt.CounterValue)
}

// Set is a set of integers whose operations report prior membership;
// conflicts derived from the specification are automatically per-element,
// so operations on distinct elements run fully concurrently.
type Set struct{ obj *Object }

// NewSet creates an empty set object.
func (s *System) NewSet(name string, opts ...ObjectOption) (*Set, error) {
	return newBuiltin(s, name, "Set", wrapSet, opts)
}

// Insert adds v; it reports whether v was newly added.
func (st *Set) Insert(tx Txn, v int64) (bool, error) {
	res, err := st.obj.Call(tx, adt.SetInsertInv(v))
	if err != nil {
		return false, err
	}
	return res == adt.ResOk, nil
}

// Remove deletes v; it reports whether v was present.
func (st *Set) Remove(tx Txn, v int64) (bool, error) {
	res, err := st.obj.Call(tx, adt.SetRemoveInv(v))
	if err != nil {
		return false, err
	}
	return res == adt.ResOk, nil
}

// Member reports whether v is in the set.
func (st *Set) Member(tx Txn, v int64) (bool, error) {
	res, err := st.obj.Call(tx, adt.SetMemberInv(v))
	if err != nil {
		return false, err
	}
	return res == adt.ResTrue, nil
}

// CommittedSize returns the committed cardinality.
func (st *Set) CommittedSize() int {
	return adt.SetSize(st.obj.CommittedState())
}

// MemberAt reports membership as of the read-only transaction's timestamp.
func (st *Set) MemberAt(r ReadTxn, v int64) (bool, error) {
	inv := adt.SetMemberInv(v)
	state, res, err := st.obj.readState(r, inv)
	if err != nil || state == nil {
		return res == adt.ResTrue, err
	}
	return adt.SetHas(state, inv.Arg), nil
}

// Directory maps string keys to integer values; conflicts are per-key.
type Directory struct{ obj *Object }

// NewDirectory creates an empty directory object.
func (s *System) NewDirectory(name string, opts ...ObjectOption) (*Directory, error) {
	return newBuiltin(s, name, "Directory", wrapDirectory, opts)
}

// Bind associates key with value when key is unbound; it reports whether
// the binding was created (false: key already bound, unchanged).
func (d *Directory) Bind(tx Txn, key string, value int64) (bool, error) {
	res, err := d.obj.Call(tx, adt.DirBindInv(key, value))
	if err != nil {
		return false, err
	}
	return res == adt.ResOk, nil
}

// Unbind removes key's binding; it reports whether a binding existed.
func (d *Directory) Unbind(tx Txn, key string) (bool, error) {
	res, err := d.obj.Call(tx, adt.DirUnbindInv(key))
	if err != nil {
		return false, err
	}
	return res == adt.ResOk, nil
}

// Lookup returns the value bound to key, or ok=false when unbound.
func (d *Directory) Lookup(tx Txn, key string) (int64, bool, error) {
	res, err := d.obj.Call(tx, adt.DirLookupInv(key))
	if err != nil {
		return 0, false, err
	}
	if res == adt.ResAbsent {
		return 0, false, nil
	}
	return adt.Atoi(res), true, nil
}

// CommittedSize returns the number of committed bindings.
func (d *Directory) CommittedSize() int {
	return adt.DirectorySize(d.obj.CommittedState())
}

// LookupAt returns the binding of key as of the read-only transaction's
// timestamp.
func (d *Directory) LookupAt(r ReadTxn, key string) (int64, bool, error) {
	state, res, err := d.obj.readState(r, adt.DirLookupInv(key))
	switch {
	case err != nil:
		return 0, false, err
	case state != nil:
		v, ok := adt.DirectoryLookup(state, key)
		return v, ok, nil
	case res == adt.ResAbsent:
		return 0, false, nil
	}
	return adt.Atoi(res), true, nil
}
