package netproto

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"hybridcc/internal/backoff"
	"hybridcc/internal/core"
	"hybridcc/internal/tstamp"
)

// startShardOn serves a fresh volatile shard on an existing listener —
// used to restart a shard on the same address after a shutdown.
func startShardOn(t *testing.T, ln net.Listener, shard, shards int) (string, *Server) {
	t.Helper()
	sys := core.NewSystem(core.Options{
		Clock:              tstamp.NewNodeClock(shard, shards+1),
		ExternalTimestamps: true,
		LockWait:           250 * time.Millisecond,
	})
	srv, err := NewServer(sys, shard, shards, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), srv
}

// The breaker state machine in isolation: closed until threshold
// consecutive failures, then open (fail fast), half-open probe when due,
// probe failure re-opens, probe success closes.
func TestBreakerStateMachine(t *testing.T) {
	b := newBreaker(2, 3, backoff.Policy{Base: 25 * time.Millisecond, Cap: 100 * time.Millisecond})

	for i := 0; i < 2; i++ {
		b.failure()
		if err := b.allow(); err != nil {
			t.Fatalf("breaker opened after %d failures, threshold is 3", i+1)
		}
	}
	b.failure() // third consecutive failure trips it
	err := b.allow()
	if err == nil {
		t.Fatal("breaker still closed at threshold")
	}
	var down *ShardDownError
	if !errors.As(err, &down) || down.Shard != 2 || down.Since.IsZero() {
		t.Fatalf("allow() = %v, want *ShardDownError for shard 2 with a trip time", err)
	}
	if !errors.Is(err, ErrShardDown) {
		t.Fatal("ShardDownError does not unwrap to ErrShardDown")
	}
	if errors.Is(err, ErrUnavailable) {
		t.Fatal("ErrShardDown must not masquerade as ErrUnavailable")
	}
	if open, since := b.down(); !open || !since.Equal(down.Since) {
		t.Fatalf("down() = %v/%v, want open since %v", open, since, down.Since)
	}

	// A probe is due after the base delay (jitter keeps it within
	// [Base/2, Base]); exactly one request is admitted.
	time.Sleep(30 * time.Millisecond)
	if err := b.allow(); err != nil {
		t.Fatalf("probe not admitted after backoff: %v", err)
	}
	if err := b.allow(); err == nil {
		t.Fatal("second request admitted while a probe is outstanding")
	}
	// Probe failure re-opens; the next probe is pushed further out.
	b.failure()
	if err := b.allow(); err == nil {
		t.Fatal("breaker closed after failed probe")
	}
	// Eventually a probe succeeds and the breaker closes for everyone.
	time.Sleep(60 * time.Millisecond)
	if err := b.allow(); err != nil {
		t.Fatalf("second probe not admitted: %v", err)
	}
	b.success()
	if err := b.allow(); err != nil {
		t.Fatalf("breaker not closed after successful probe: %v", err)
	}
	if open, _ := b.down(); open {
		t.Fatal("down() reports open after recovery")
	}

	// Success resets the consecutive-failure count.
	b.failure()
	b.failure()
	b.success()
	b.failure()
	b.failure()
	if err := b.allow(); err != nil {
		t.Fatal("non-consecutive failures tripped the breaker")
	}
}

// After the shard dies, consecutive failures open the breaker and further
// requests fail fast with ErrShardDown — microseconds, not a dial
// timeout.  This is the < 10ms half of the degradation contract.
func TestBreakerFailsFastAfterShardDeath(t *testing.T) {
	addr, srv := startShard(t, 0, 1)
	c := dialTest(t, addr, 0, 1, ClientOptions{
		Timeout:        2 * time.Second,
		BreakerBackoff: backoff.Policy{Base: 5 * time.Second, Cap: 5 * time.Second},
	})
	ctx := context.Background()
	if err := c.Ping(ctx); err != nil {
		t.Fatal(err)
	}

	srv.Shutdown(time.Second)

	// Three consecutive transport failures trip the default threshold.
	// Loopback dials to a dead port fail with connection-refused, so each
	// attempt is quick — but crucially the post-trip behaviour does not
	// depend on that.
	for i := 0; i < 3; i++ {
		if err := c.Ping(ctx); err == nil {
			t.Fatal("ping succeeded against a dead shard")
		} else if !errors.Is(err, ErrUnavailable) {
			t.Fatalf("pre-trip failure = %v, want ErrUnavailable", err)
		}
	}
	if open, _ := c.bk.down(); !open {
		t.Fatal("breaker still closed after threshold failures")
	}

	start := time.Now()
	err := c.Ping(ctx)
	elapsed := time.Since(start)
	var down *ShardDownError
	if !errors.As(err, &down) {
		t.Fatalf("post-trip error = %v, want *ShardDownError", err)
	}
	if down.Shard != 0 || down.Since.IsZero() {
		t.Fatalf("ShardDownError = %+v, want shard 0 with a trip time", down)
	}
	if elapsed > 10*time.Millisecond {
		t.Fatalf("open-breaker rejection took %v, want < 10ms (no dial-timeout stall)", elapsed)
	}
	if errors.Is(err, ErrUnavailable) {
		t.Fatal("fail-fast error matches ErrUnavailable; retry loops would spin on it")
	}
}

// A half-open probe finds the restarted shard and closes the breaker; the
// client heals without being re-dialed by the application.
func TestBreakerHalfOpenProbeRecovers(t *testing.T) {
	addr, srv := startShard(t, 0, 1)
	c := dialTest(t, addr, 0, 1, ClientOptions{
		Timeout:        2 * time.Second,
		BreakerBackoff: backoff.Policy{Base: 50 * time.Millisecond, Cap: 100 * time.Millisecond},
	})
	ctx := context.Background()
	if err := c.Ping(ctx); err != nil {
		t.Fatal(err)
	}

	srv.Shutdown(time.Second)
	for i := 0; i < 3; i++ {
		_ = c.Ping(ctx)
	}
	if open, _ := c.bk.down(); !open {
		t.Fatal("breaker did not trip")
	}

	// Restart a fresh shard on the same address.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("cannot rebind %s: %v", addr, err)
	}
	_, srv2 := startShardOn(t, ln, 0, 1)
	defer srv2.Shutdown(time.Second)

	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := c.Ping(ctx); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("breaker never admitted a successful probe after restart")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if open, _ := c.bk.down(); open {
		t.Fatal("breaker still open after successful probe")
	}
}
