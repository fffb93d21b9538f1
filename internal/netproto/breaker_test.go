package netproto

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"hybridcc/internal/adt"
	"hybridcc/internal/backoff"
	"hybridcc/internal/core"
	"hybridcc/internal/histories"
	"hybridcc/internal/tstamp"
)

// down reports whether the breaker is open and since when.
func (b *breaker) down() (bool, time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state != bkClosed, b.since
}

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

// A transaction whose pinned connection broke must not go on at the shard:
// a restarted shard has forgotten the branch, so a later call would begin
// a fresh branch under the same id, and a fast-path commit would apply only
// the calls made after the restart.  The client refuses every later call,
// prepare and commit of that transaction with a retryable error; its abort,
// or its abort decision, still goes out.
func TestBrokenPinRefusesLaterWork(t *testing.T) {
	addr, srv := startShard(t, 0, 1)
	c := dialTest(t, addr, 0, 1, ClientOptions{
		BreakerBackoff: backoff.Policy{Base: 10 * time.Millisecond, Cap: 20 * time.Millisecond},
	})
	ctx := context.Background()
	if err := c.Register("ctr", "Counter", "hybrid"); err != nil {
		t.Fatal(err)
	}
	for _, tx := range []histories.TxID{"T1", "T3"} { // T3 is a cross-shard branch
		if _, err := c.Call(ctx, tx, "ctr", adt.IncInv(1)); err != nil {
			t.Fatal(err)
		}
	}

	srv.Shutdown(0) // the crash: every connection closes at once
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("cannot rebind %s: %v", addr, err)
	}
	_, srv2 := startShardOn(t, ln, 0, 1)
	defer srv2.Shutdown(time.Second)
	deadline := time.Now().Add(5 * time.Second)
	for c.Register("ctr", "Counter", "hybrid") != nil { // the pool's dead connections fail first
		if time.Now().After(deadline) {
			t.Fatal("restarted shard never took the registration")
		}
		time.Sleep(10 * time.Millisecond)
	}

	if _, err := c.Call(ctx, "T1", "ctr", adt.IncInv(2)); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("call on the broken pinned connection = %v, want ErrUnavailable", err)
	}
	if _, err := c.Call(ctx, "T1", "ctr", adt.IncInv(4)); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("call after the pin broke = %v, want ErrUnavailable", err)
	}
	if err := c.WriteBehind(ctx, "T1", "ctr", adt.IncInv(8)); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("write-behind call after the pin broke = %v, want ErrUnavailable", err)
	}
	if _, err := c.Commit(ctx, "T1"); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("commit after the pin broke = %v, want ErrUnavailable", err)
	}
	if err := c.Abort(ctx, "T1"); err != nil {
		t.Fatalf("abort after the pin broke: %v", err)
	}

	tr := c.Transport()
	if _, yes, _ := tr.StartPrepare(ctx, "T3", time.Second)(); yes {
		t.Fatal("prepare on the broken pinned connection voted yes")
	}
	if _, yes, _ := tr.StartPrepare(ctx, "T3", time.Second)(); yes {
		t.Fatal("prepare after the pin broke voted yes")
	}
	if !tr.StartAbort(ctx, "T3", time.Second)() {
		t.Fatal("abort decision after the pin broke not acknowledged")
	}
	c.mu.Lock()
	left, lost := len(c.out), len(c.lost)
	c.mu.Unlock()
	if left != 0 || lost != 0 {
		t.Fatalf("after the aborts: %d decisions in the outbox and %d transactions marked lost, want none", left, lost)
	}

	res, err := c.Call(ctx, "T2", "ctr", adt.CtrReadInv())
	if err != nil {
		t.Fatal(err)
	}
	if res != adt.Itoa(0) {
		t.Fatalf("restarted shard's counter = %s, want 0: a part of T1 committed", res)
	}
	if _, err := c.Commit(ctx, "T2"); err != nil {
		t.Fatal(err)
	}
}
