package commitproto

import (
	"context"
	"sync"
	"time"

	"hybridcc/internal/histories"
)

// MsgClass partitions protocol messages for fault scripting.
type MsgClass int

// Message classes.
const (
	ClassPrepare MsgClass = iota
	ClassCommit
	ClassAbort
	numClasses
)

// FaultAction is one scripted behaviour applied to a single message.
type FaultAction int

// Fault actions.  Each consumed action applies to exactly one message of
// its class; messages with no pending action pass through untouched.
const (
	// PassThrough delivers the message normally (a scripted no-op, useful
	// to skip the first N messages of a class).
	PassThrough FaultAction = iota
	// DropRequest loses the message before it reaches the participant:
	// nothing is delivered and the sender sees the site as unreachable.
	DropRequest
	// DropReply delivers the message but loses the acknowledgement: the
	// participant acts on it, yet the sender sees the site as unreachable.
	// This is the classic "decision applied, coordinator unsure" fault.
	DropReply
	// Delay delivers the message after the transport's delay (10 ms).
	Delay
	// Dup delivers the message twice back to back, exercising receiver
	// idempotence.
	Dup
	// Hold captures the message without delivering it; ReleaseHeld later
	// delivers all held messages in capture order.  The sender sees the
	// site as unreachable now — when the message is a decision, delivery
	// happens after the sender has moved on, reordering decision delivery
	// against subsequent traffic.
	Hold
	// Reorder captures the message like Hold, but releases it
	// automatically once k further messages (of any class) have been
	// delivered through this transport: message N arrives after message
	// N+k.  Script it with ScriptReorder, which supplies k.  The sender
	// sees the site as unreachable now, exactly as with Hold.
	Reorder
)

type reorderEntry struct {
	deliver func()
	left    int
}

// FaultTransport wraps another Transport with deterministic, scripted
// fault injection: per message class, a FIFO script of actions is
// consumed one action per message.  Every fault is chosen in advance by
// the test, so failure interleavings reproduce exactly.  It composes with
// any Transport — Direct or a network shard client — making the 2PC crash
// suites runnable unchanged over each.
//
// A FaultTransport may also act as a pure fault controller with a nil
// inner transport: Wrap derives per-message-sink views that share the
// controller's script, partition, and reorder state.  That is how a
// cluster applies one persistent fault plan per shard even though its
// Options.WrapTransport hook builds a fresh transport for every commit
// round.
type FaultTransport struct {
	inner Transport

	mu          sync.Mutex
	script      [numClasses][]FaultAction
	reorderK    [numClasses][]int
	held        []func()
	pending     []reorderEntry
	partitioned bool
	partLeft    int
	partDropped int
	delay       time.Duration
	delivered   [numClasses]int
}

var _ Transport = (*FaultTransport)(nil)

// NewFaultTransport wraps inner with an empty script (all messages pass
// through) and a default Delay duration of 10ms.  A nil inner is allowed
// when the value is used only as a shared controller via Wrap.
func NewFaultTransport(inner Transport) *FaultTransport {
	return &FaultTransport{inner: inner, delay: 10 * time.Millisecond}
}

// Wrap returns a Transport that delivers to inner while consuming this
// transport's scripts and honouring its partition/reorder state.  All
// views derived from one FaultTransport share that single state, so a
// script entry is consumed by whichever view sees the next message of
// its class — the behaviour a per-shard fault plan needs when each
// commit round builds its own transport instance.
func (f *FaultTransport) Wrap(inner Transport) Transport {
	return &faultView{ctl: f, inner: inner}
}

// Script appends actions to the class's FIFO script.  Reorder actions
// must be added with ScriptReorder instead so they carry a release
// distance; a bare Reorder appended here behaves like Hold.
func (f *FaultTransport) Script(class MsgClass, actions ...FaultAction) {
	f.mu.Lock()
	for _, a := range actions {
		f.script[class] = append(f.script[class], a)
		if a == Reorder {
			f.reorderK[class] = append(f.reorderK[class], 0)
		}
	}
	f.mu.Unlock()
}

// ScriptReorder appends a Reorder action for the class: the next message
// of that class is captured and delivered only after k further messages
// (of any class) have been delivered.  k < 1 is treated as 1.
func (f *FaultTransport) ScriptReorder(class MsgClass, k int) {
	if k < 1 {
		k = 1
	}
	f.mu.Lock()
	f.script[class] = append(f.script[class], Reorder)
	f.reorderK[class] = append(f.reorderK[class], k)
	f.mu.Unlock()
}

// SetPartitioned toggles a full partition: while set, every message of
// every class is dropped before delivery (scripts are not consumed) and
// the sender sees the site as unreachable — bidirectional loss, since
// neither the request nor any reply crosses the cut.
func (f *FaultTransport) SetPartitioned(p bool) {
	f.mu.Lock()
	f.partitioned = p
	f.mu.Unlock()
}

// PartitionNext arms a scripted partition span: the next n messages of
// any class are dropped as by SetPartitioned(true), after which the
// partition heals itself.  A span is consumed before per-class scripts,
// so it models a cut in the network rather than a targeted fault.
func (f *FaultTransport) PartitionNext(n int) {
	f.mu.Lock()
	if n > f.partLeft {
		f.partLeft = n
	}
	f.mu.Unlock()
}

// Partitioned reports whether a partition (toggle or unexpired span) is
// currently in force.
func (f *FaultTransport) Partitioned() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.partitioned || f.partLeft > 0
}

// PartitionDropped reports how many messages a partition has swallowed.
func (f *FaultTransport) PartitionDropped() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.partDropped
}

// ReleaseHeld delivers every held message in capture order and returns
// how many were released.  Messages captured by Reorder are not
// released here; they release themselves by message count.
func (f *FaultTransport) ReleaseHeld() int {
	f.mu.Lock()
	held := f.held
	f.held = nil
	f.mu.Unlock()
	for _, deliver := range held {
		deliver()
		f.drainDue()
	}
	return len(held)
}

// ReorderPending reports how many captured messages still await their
// release count.
func (f *FaultTransport) ReorderPending() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.pending)
}

// Delivered reports how many messages of class actually reached the inner
// transport (dup deliveries count twice, held ones on release).
func (f *FaultTransport) Delivered(class MsgClass) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.delivered[class]
}

// next consumes the class's next scripted action, honouring partition
// state.  For Reorder actions it also pops the release distance.
func (f *FaultTransport) next(class MsgClass) (action FaultAction, delay time.Duration, k int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.partitioned || f.partLeft > 0 {
		if f.partLeft > 0 {
			f.partLeft--
		}
		f.partDropped++
		return DropRequest, 0, 0
	}
	s := f.script[class]
	if len(s) == 0 {
		return PassThrough, f.delay, 0
	}
	f.script[class] = s[1:]
	if s[0] == Reorder {
		k = f.reorderK[class][0]
		f.reorderK[class] = f.reorderK[class][1:]
		if k < 1 {
			// Script() appended a bare Reorder; degrade to Hold semantics.
			return Hold, f.delay, 0
		}
	}
	return s[0], f.delay, k
}

// countDelivery records one delivery and advances reorder countdowns.
func (f *FaultTransport) countDelivery(class MsgClass) {
	f.mu.Lock()
	f.delivered[class]++
	for i := range f.pending {
		f.pending[i].left--
	}
	f.mu.Unlock()
}

func (f *FaultTransport) hold(deliver func()) {
	f.mu.Lock()
	f.held = append(f.held, deliver)
	f.mu.Unlock()
}

func (f *FaultTransport) holdUntil(deliver func(), k int) {
	f.mu.Lock()
	f.pending = append(f.pending, reorderEntry{deliver: deliver, left: k})
	f.mu.Unlock()
}

// drainDue delivers every reorder-captured message whose countdown has
// expired.  Released deliveries count as deliveries themselves, so one
// release can cascade into the next; the loop runs until quiescent.
func (f *FaultTransport) drainDue() {
	for {
		f.mu.Lock()
		var due []func()
		rest := f.pending[:0]
		for _, e := range f.pending {
			if e.left <= 0 {
				due = append(due, e.deliver)
			} else {
				rest = append(rest, e)
			}
		}
		f.pending = rest
		f.mu.Unlock()
		if len(due) == 0 {
			return
		}
		for _, d := range due {
			d()
		}
	}
}

// dispatch applies the class's next scripted action around deliver,
// which must perform the actual inner delivery (and count it).  The
// return value reports whether the sender observes the delivery; when
// false the sender must see the site as unreachable.
func (f *FaultTransport) dispatch(class MsgClass, deliver func()) bool {
	action, delay, k := f.next(class)
	visible := false
	switch action {
	case DropRequest:
	case DropReply:
		deliver()
	case Delay:
		time.Sleep(delay)
		deliver()
		visible = true
	case Dup:
		deliver()
		deliver()
		visible = true
	case Hold:
		f.hold(deliver)
	case Reorder:
		f.holdUntil(deliver, k)
	default:
		deliver()
		visible = true
	}
	f.drainDue()
	return visible
}

// prepareVia runs one Prepare through the fault machinery, delivering to
// inner.  Shared by FaultTransport itself and Wrap views.
func (f *FaultTransport) prepareVia(inner Transport, ctx context.Context, tx histories.TxID, timeout time.Duration) (histories.Timestamp, bool, bool) {
	var ts histories.Timestamp
	var ok, reached bool
	deliver := func() {
		f.countDelivery(ClassPrepare)
		ts, ok, reached = inner.Prepare(ctx, tx, timeout)
	}
	if !f.dispatch(ClassPrepare, deliver) {
		return 0, false, false
	}
	return ts, ok, reached
}

// commitVia runs one Commit decision through the fault machinery.
func (f *FaultTransport) commitVia(inner Transport, ctx context.Context, tx histories.TxID, ts histories.Timestamp, timeout time.Duration) bool {
	var acked bool
	deliver := func() {
		f.countDelivery(ClassCommit)
		acked = inner.Commit(ctx, tx, ts, timeout)
	}
	if !f.dispatch(ClassCommit, deliver) {
		return false
	}
	return acked
}

// abortVia runs one Abort decision through the fault machinery.
func (f *FaultTransport) abortVia(inner Transport, ctx context.Context, tx histories.TxID, timeout time.Duration) bool {
	var acked bool
	deliver := func() {
		f.countDelivery(ClassAbort)
		acked = inner.Abort(ctx, tx, timeout)
	}
	if !f.dispatch(ClassAbort, deliver) {
		return false
	}
	return acked
}

// Name implements Transport.
func (f *FaultTransport) Name() string {
	if f.inner == nil {
		return "faults"
	}
	return f.inner.Name() + "+faults"
}

// Prepare implements Transport, applying the next scripted prepare fault.
func (f *FaultTransport) Prepare(ctx context.Context, tx histories.TxID, timeout time.Duration) (histories.Timestamp, bool, bool) {
	return f.prepareVia(f.inner, ctx, tx, timeout)
}

// Commit implements Transport, applying the next scripted commit-decision
// fault.
func (f *FaultTransport) Commit(ctx context.Context, tx histories.TxID, ts histories.Timestamp, timeout time.Duration) bool {
	return f.commitVia(f.inner, ctx, tx, ts, timeout)
}

// Abort implements Transport, applying the next scripted abort-decision
// fault.
func (f *FaultTransport) Abort(ctx context.Context, tx histories.TxID, timeout time.Duration) bool {
	return f.abortVia(f.inner, ctx, tx, timeout)
}

// faultView is a Transport bound to one inner message sink but sharing a
// controller's fault state; see FaultTransport.Wrap.
type faultView struct {
	ctl   *FaultTransport
	inner Transport
}

var _ Transport = (*faultView)(nil)

func (v *faultView) Name() string { return v.inner.Name() + "+faults" }

func (v *faultView) Prepare(ctx context.Context, tx histories.TxID, timeout time.Duration) (histories.Timestamp, bool, bool) {
	return v.ctl.prepareVia(v.inner, ctx, tx, timeout)
}

func (v *faultView) Commit(ctx context.Context, tx histories.TxID, ts histories.Timestamp, timeout time.Duration) bool {
	return v.ctl.commitVia(v.inner, ctx, tx, ts, timeout)
}

func (v *faultView) Abort(ctx context.Context, tx histories.TxID, timeout time.Duration) bool {
	return v.ctl.abortVia(v.inner, ctx, tx, timeout)
}
