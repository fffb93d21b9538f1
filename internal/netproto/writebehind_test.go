package netproto

import (
	"context"
	"errors"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hybridcc/internal/adt"
	"hybridcc/internal/core"
	"hybridcc/internal/histories"
	"hybridcc/internal/spec"
	"hybridcc/internal/tstamp"
)

// severServerConns closes every connection the server holds, as a network
// failure would.
func severServerConns(s *Server) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for sc := range s.conns {
		_ = sc.nc.Close()
	}
}

// TestOwedRepliesBrokenConnectionClosed: a transport error met while
// replies are owed — reading them at commit, or at a full window — closes
// the connection, and it never goes back to the pool.
func TestOwedRepliesBrokenConnectionClosed(t *testing.T) {
	for _, tc := range []struct {
		name  string
		calls int
		last  func(c *ShardClient, tx histories.TxID) error
	}{
		{"commit", 3, func(c *ShardClient, tx histories.TxID) error {
			_, err := c.Commit(context.Background(), tx)
			return err
		}},
		{"full window", maxOwed, func(c *ShardClient, tx histories.TxID) error {
			return c.WriteBehind(context.Background(), tx, "acct", adt.CreditInv(1))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr, srv := startShard(t, 0, 1)
			c := dialTest(t, addr, 0, 1, ClientOptions{})
			if err := c.Register("acct", "Account", "hybrid"); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < tc.calls; i++ {
				if err := c.WriteBehind(context.Background(), "T1", "acct", adt.CreditInv(1)); err != nil {
					t.Fatal(err)
				}
			}
			c.mu.Lock()
			rc := c.pinned["T1"]
			c.mu.Unlock()
			if rc == nil {
				t.Fatal("no pinned connection")
			}
			if rc.owed != tc.calls {
				t.Fatalf("pinned connection owes %d replies, want %d", rc.owed, tc.calls)
			}
			severServerConns(srv)
			if err := tc.last(c, "T1"); !errors.Is(err, ErrUnavailable) {
				t.Fatalf("with the connection severed: %v, want ErrUnavailable", err)
			}
			c.mu.Lock()
			for _, idle := range c.idle {
				if idle == rc {
					t.Error("a connection with owed replies went back to the pool")
				}
			}
			_, still := c.pinned["T1"]
			c.mu.Unlock()
			if still {
				t.Error("the broken connection is still pinned")
			}
			if err := rc.nc.SetDeadline(time.Time{}); err == nil {
				t.Error("the broken connection is still open")
			}
		})
	}
}

// TestWriteBehindLargeFrameAfterIdle: a write-behind frame larger than
// the connection's buffer goes to the socket at once, bounded from then,
// so on a pooled connection idle past the RPC timeout it still commits.
func TestWriteBehindLargeFrameAfterIdle(t *testing.T) {
	const timeout = 100 * time.Millisecond
	addr, _ := startShard(t, 0, 1)
	c := dialTest(t, addr, 0, 1, ClientOptions{Timeout: timeout})
	if err := c.Register("f", "File", "hybrid"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	time.Sleep(2 * timeout) // the deadline the registration armed passes
	big := strings.Repeat("7", 64<<10)
	if err := c.WriteBehind(ctx, "T", "f", spec.Invocation{Name: "Write", Arg: big}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Commit(ctx, "T"); err != nil {
		t.Fatal(err)
	}
	if res, err := c.Call(ctx, "R", "f", spec.Invocation{Name: "Read"}); err != nil || res != big {
		t.Fatalf("read back %d bytes, %v; want %d", len(res), err, len(big))
	}
	if err := c.Abort(ctx, "R"); err != nil {
		t.Fatal(err)
	}
}

// TestOwedErrorFailsNextCall: an owed reply's error fails the next call of
// the transaction and every later one; the transaction's abort then
// returns its connection to the pool with nothing owed, also when the
// abort itself goes out behind an owed error.
func TestOwedErrorFailsNextCall(t *testing.T) {
	addr, _ := startShard(t, 0, 1)
	c := dialTest(t, addr, 0, 1, ClientOptions{})
	if err := c.Register("acct", "Account", "hybrid"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// The holder's Debit → Overdraft blocks every Credit until it ends.
	if res, err := c.Call(ctx, "H", "acct", adt.DebitInv(5)); err != nil || res != adt.ResOverdraft {
		t.Fatalf("holder debit: %q, %v", res, err)
	}
	if err := c.WriteBehind(ctx, "T", "acct", adt.CreditInv(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Call(ctx, "T", "acct", adt.DebitInv(1)); !errors.Is(err, core.ErrTimeout) {
		t.Fatalf("call after a blocked write-behind credit: %v, want the credit's ErrTimeout", err)
	}
	if err := c.WriteBehind(ctx, "T", "acct", adt.CreditInv(1)); !errors.Is(err, core.ErrTimeout) {
		t.Fatalf("later write-behind: %v, want the sticky ErrTimeout", err)
	}
	if err := c.Abort(ctx, "T"); err != nil {
		t.Fatal(err)
	}
	// An abort goes out behind owed calls and ignores their errors.
	if err := c.WriteBehind(ctx, "U", "acct", adt.CreditInv(1)); err != nil {
		t.Fatal(err)
	}
	if err := c.Abort(ctx, "U"); err != nil {
		t.Fatalf("abort behind a blocked write-behind credit: %v", err)
	}
	c.mu.Lock()
	n := len(c.idle)
	for _, rc := range c.idle {
		if rc.owed != 0 || rc.failed != nil {
			t.Errorf("pooled connection owes %d, failed %v", rc.owed, rc.failed)
		}
	}
	c.mu.Unlock()
	if n == 0 {
		t.Error("the aborted transactions' connections were not pooled")
	}
	if err := c.Abort(ctx, "H"); err != nil {
		t.Fatal(err)
	}
}

// writeCounter counts the writes of the connections a listener accepts.
type writeCounter struct {
	net.Listener
	writes *atomic.Int64
}

func (l writeCounter) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countedWrites{nc, l.writes}, nil
}

type countedWrites struct {
	net.Conn
	writes *atomic.Int64
}

func (c countedWrites) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestPipelinedCallsAnsweredTogether: a full window of write-behind calls
// and the call that reads them reach the server as one burst, and it
// answers with about one write, not one per call.
func TestPipelinedCallsAnsweredTogether(t *testing.T) {
	checkGoroutines(t)
	sys := core.NewSystem(core.Options{Clock: tstamp.NewNodeClock(0, 2), ExternalTimestamps: true})
	srv, err := NewServer(sys, 0, 1, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var writes atomic.Int64
	go func() { _ = srv.Serve(writeCounter{ln, &writes}) }()
	t.Cleanup(func() { srv.Shutdown(time.Second) })
	c := dialTest(t, ln.Addr().String(), 0, 1, ClientOptions{})
	if err := c.Register("acct", "Account", "hybrid"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < maxOwed; i++ {
		if err := c.WriteBehind(ctx, "T", "acct", adt.CreditInv(1)); err != nil {
			t.Fatal(err)
		}
	}
	before := writes.Load()
	if res, err := c.Call(ctx, "T", "acct", adt.DebitInv(maxOwed)); err != nil || res != adt.ResOk {
		t.Fatalf("debit after %d credits: %q, %v", maxOwed, res, err)
	}
	if n := writes.Load() - before; n > 4 {
		t.Errorf("%d replies took %d writes", maxOwed+1, n)
	}
	if _, err := c.Commit(ctx, "T"); err != nil {
		t.Fatal(err)
	}
}
