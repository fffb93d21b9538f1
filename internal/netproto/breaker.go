package netproto

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"hybridcc/internal/backoff"
)

// ErrShardDown marks a request refused by an open circuit breaker: the
// shard has failed consecutively and the client is failing fast instead
// of burning a dial timeout per attempt.  It deliberately does NOT match
// ErrUnavailable — an open breaker is a known condition, not a fresh
// transport failure, and callers back off differently (see the retry
// loop in the root package).
var ErrShardDown = errors.New("netproto: shard down (circuit breaker open)")

// ShardDownError is the typed form of ErrShardDown, naming the shard and
// when its breaker opened.  Use errors.As to recover it.
type ShardDownError struct {
	Shard int
	Since time.Time
}

// Error implements error.
func (e *ShardDownError) Error() string {
	return fmt.Sprintf("netproto: shard %d down for %s (circuit breaker open)", e.Shard, time.Since(e.Since).Round(time.Millisecond))
}

// Unwrap makes errors.Is(err, ErrShardDown) hold.
func (e *ShardDownError) Unwrap() error { return ErrShardDown }

// Breaker states.
const (
	bkClosed = iota
	bkOpen
	bkHalfOpen
)

// breaker is a per-shard circuit breaker: closed while the shard behaves,
// open after threshold consecutive transport failures, half-open when a
// probe is due.  In half-open exactly one request is admitted; its
// outcome either closes the breaker or re-opens it with the next probe
// scheduled by a jittered exponential backoff policy.
//
// Only genuine transport outcomes feed the breaker — an allow() rejection
// is not a failure, and server-side application errors (msgErr responses)
// are successes at this layer: the shard answered.
type breaker struct {
	shard     int
	threshold int
	policy    backoff.Policy

	mu    sync.Mutex
	state int
	fails int       // consecutive failures while closed
	since time.Time // when the breaker opened
	probe time.Time // when the next half-open probe is due
	cycle int       // completed open→probe→open cycles, drives backoff growth
}

// newBreaker builds a breaker; a threshold ≤ 0 means the default of 3.
func newBreaker(shard, threshold int, policy backoff.Policy) *breaker {
	if threshold <= 0 {
		threshold = 3
	}
	return &breaker{shard: shard, threshold: threshold, policy: policy}
}

// allow reports whether a request may proceed.  It returns nil in closed
// state, admits a single probe when one is due, and otherwise fails fast
// with a *ShardDownError.
func (b *breaker) allow() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case bkClosed:
		return nil
	case bkOpen:
		if time.Now().After(b.probe) {
			b.state = bkHalfOpen
			return nil // admit one probe
		}
	}
	return &ShardDownError{Shard: b.shard, Since: b.since}
}

// success records a successful transport round trip, closing the breaker.
func (b *breaker) success() {
	b.mu.Lock()
	b.state = bkClosed
	b.fails = 0
	b.cycle = 0
	b.mu.Unlock()
}

// failure records a transport failure: it trips a closed breaker at the
// threshold and re-opens a half-open one with the next probe pushed out
// by the backoff policy.
func (b *breaker) failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := time.Now()
	switch b.state {
	case bkClosed:
		b.fails++
		if b.fails >= b.threshold {
			b.state = bkOpen
			b.since = now
			b.cycle = 0
			b.probe = now.Add(b.policy.Delay(0))
		}
	case bkHalfOpen:
		b.state = bkOpen
		b.cycle++
		b.probe = now.Add(b.policy.Delay(b.cycle))
	case bkOpen:
		// A straggler from before the trip; the breaker already knows.
	}
}

// observe folds a round-trip outcome into the breaker.
func (b *breaker) observe(ok bool) {
	if ok {
		b.success()
	} else {
		b.failure()
	}
}
