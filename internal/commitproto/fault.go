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

// FaultTransport is a deterministic, scripted fault-injection controller
// for protocol messages: per message class, a FIFO script of actions is
// consumed one action per message.  Every fault is chosen in advance by
// the test, so failure interleavings reproduce exactly.  Wrap puts any
// Transport — Direct or a network shard client — behind the controller,
// making the 2PC crash suites runnable unchanged over each.
//
// Every view Wrap hands out shares the controller's script, partition, and
// reorder state.  That is how a cluster applies one persistent fault plan
// per shard even though its Options.WrapTransport hook wraps a fresh
// transport for every commit round.
type FaultTransport struct {
	mu          sync.Mutex
	script      [numClasses][]FaultAction
	reorderK    [numClasses][]int
	held        []func()
	pending     []reorderEntry
	partitioned bool
	partDropped int
	delay       time.Duration
	delivered   [numClasses]int
}

// NewFaultTransport returns a controller with an empty script (all
// messages pass through) and a default Delay duration of 10ms.
func NewFaultTransport() *FaultTransport {
	return &FaultTransport{delay: 10 * time.Millisecond}
}

// Wrap returns a Transport that delivers to inner while consuming this
// controller's scripts and honouring its partition/reorder state.  All
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
	if f.partitioned {
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

// start applies the class's next scripted action to one message.  send
// starts the inner delivery and returns its completion.  The returned
// completion finishes whatever was started, then delivers any reorder-
// captured message that came due — only after the inner completion has
// returned, so the site never has two messages in flight — and reports
// whether the sender observes the delivery; when false the sender must
// see the site as unreachable.  A held or reorder-captured message is
// delivered later whole: started and completed back to back.
func (f *FaultTransport) start(class MsgClass, send func() (finish func())) func() bool {
	action, delay, k := f.next(class)
	deliver := func() func() {
		f.countDelivery(class)
		return send()
	}
	whole := func() { deliver()() }
	var inFlight func()
	visible := false
	switch action {
	case DropRequest:
	case DropReply:
		inFlight = deliver()
	case Delay:
		time.Sleep(delay)
		inFlight, visible = deliver(), true
	case Dup:
		first := deliver()
		inFlight, visible = func() { first(); whole() }, true
	case Hold:
		f.hold(whole)
	case Reorder:
		f.holdUntil(whole, k)
	default:
		inFlight, visible = deliver(), true
	}
	return func() bool {
		if inFlight != nil {
			inFlight()
		}
		f.drainDue()
		return visible
	}
}

// faultView is the Transport Wrap hands out: it delivers to one inner
// transport through its controller's fault state.
type faultView struct {
	ctl   *FaultTransport
	inner Transport
}

var _ Transport = (*faultView)(nil)

// Name implements Transport.
func (v *faultView) Name() string { return v.inner.Name() + "+faults" }

// StartPrepare implements Transport, applying the next scripted prepare
// fault.
func (v *faultView) StartPrepare(ctx context.Context, tx histories.TxID, timeout time.Duration) func() (histories.Timestamp, bool, bool) {
	var (
		lower         histories.Timestamp
		vote, reached bool
	)
	finish := v.ctl.start(ClassPrepare, func() func() {
		answer := v.inner.StartPrepare(ctx, tx, timeout)
		return func() { lower, vote, reached = answer() }
	})
	return func() (histories.Timestamp, bool, bool) {
		if !finish() {
			return 0, false, false
		}
		return lower, vote, reached
	}
}

// StartCommit implements Transport, applying the next scripted
// commit-decision fault.
func (v *faultView) StartCommit(ctx context.Context, tx histories.TxID, ts histories.Timestamp, timeout time.Duration) func() bool {
	return v.decision(ClassCommit, func() func() bool { return v.inner.StartCommit(ctx, tx, ts, timeout) })
}

// StartAbort implements Transport, applying the next scripted
// abort-decision fault.
func (v *faultView) StartAbort(ctx context.Context, tx histories.TxID, timeout time.Duration) func() bool {
	return v.decision(ClassAbort, func() func() bool { return v.inner.StartAbort(ctx, tx, timeout) })
}

// decision runs one decision message, started by send, through the
// controller: the sender sees an acknowledgement only when the message was
// visibly delivered and the inner site acknowledged it.
func (v *faultView) decision(class MsgClass, send func() func() bool) func() bool {
	var acked bool
	finish := v.ctl.start(class, func() func() {
		answer := send()
		return func() { acked = answer() }
	})
	return func() bool { return finish() && acked }
}
