package netproto

import (
	"context"
	"errors"
	"net"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hybridcc/internal/adt"
	"hybridcc/internal/commitproto"
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
			if len(rc.st.owed) != tc.calls {
				t.Fatalf("pinned connection owes %d replies, want %d", len(rc.st.owed), tc.calls)
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
		if len(rc.st.owed) != 0 || rc.st.failed != nil {
			t.Errorf("pooled connection owes %d, failed %v", len(rc.st.owed), rc.st.failed)
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

// TestOwedErrorBeforeCommit: a commit reads its transaction's owed call
// replies first.  When the last of them is an error — a Credit that waited
// out the shard's lock wait behind a holder — the commit goes out as an
// abort and returns that error: the branch's other Credit is undone, and a
// status probe answers aborted.
func TestOwedErrorBeforeCommit(t *testing.T) {
	addr, _ := startShard(t, 0, 1)
	c := dialTest(t, addr, 0, 1, ClientOptions{})
	for _, name := range []string{"acct", "other"} {
		if err := c.Register(name, "Account", "hybrid"); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	// The holder's Debit → Overdraft blocks every Credit of acct until it ends.
	if res, err := c.Call(ctx, "H", "acct", adt.DebitInv(5)); err != nil || res != adt.ResOverdraft {
		t.Fatalf("holder debit: %q, %v", res, err)
	}
	for _, obj := range []histories.ObjID{"other", "acct"} {
		if err := c.WriteBehind(ctx, "T", obj, adt.CreditInv(1)); err != nil {
			t.Fatal(err)
		}
	}
	if ts, err := c.Commit(ctx, "T"); !errors.Is(err, core.ErrTimeout) {
		t.Fatalf("commit behind a blocked write-behind credit: ts %d, %v; want the credit's ErrTimeout", ts, err)
	}
	resp, err := c.request("", &message{typ: msgTxStatus, tx: "T"}, time.Second)
	if err != nil || resp.typ != msgOutcome || resp.flag != outcomeAborted {
		t.Fatalf("status of T: %+v, %v; want aborted", resp, err)
	}
	if res, err := c.Call(ctx, "U", "other", adt.DebitInv(1)); err != nil || res != adt.ResOverdraft {
		t.Fatalf("debit of other after the failed commit: %q, %v; want an Overdraft", res, err)
	}
	for _, tx := range []histories.TxID{"U", "H"} {
		if err := c.Abort(ctx, tx); err != nil {
			t.Fatal(err)
		}
	}
}

// afterPrepare runs a check when a prepare's completion has read the vote,
// before the coordinator sends its decision.
type afterPrepare struct {
	commitproto.Transport
	check func(vote, ok bool)
}

func (a afterPrepare) StartPrepare(ctx context.Context, tx histories.TxID, timeout time.Duration) func() (histories.Timestamp, bool, bool) {
	finish := a.Transport.StartPrepare(ctx, tx, timeout)
	return func() (histories.Timestamp, bool, bool) {
		lower, vote, ok := finish()
		a.check(vote, ok)
		return lower, vote, ok
	}
}

// TestOwedErrorBehindYesVote: a prepare goes out behind the transaction's
// owed calls.  One of them, a Credit, waits out the shard's lock wait
// behind a holder and fails, and the shard prepares the branch anyway; the
// client reports a no vote, and the abort decision reaches the prepared
// branch: the lock its other Credit took is free at once, a status probe
// answers aborted, and a restart of the durable shard finds no pending
// branch.
func TestOwedErrorBehindYesVote(t *testing.T) {
	const lockWait = 200 * time.Millisecond
	dir := t.TempDir()
	sys, err := core.OpenSystem(core.Options{
		Clock:              tstamp.NewNodeClock(0, 2),
		ExternalTimestamps: true,
		LockWait:           lockWait,
		Durability:         &core.Durability{Dir: filepath.Join(dir, "wal"), Sync: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	cat, _, err := OpenCatalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	addr, srv := serveSystem(t, sys, 0, 1, cat)
	c := dialTest(t, addr, 0, 1, ClientOptions{})
	for _, name := range []string{"acct", "other"} {
		if err := c.Register(name, "Account", "hybrid"); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	// The holder's Debit → Overdraft blocks every Credit of acct until it ends.
	if res, err := c.Call(ctx, "H", "acct", adt.DebitInv(5)); err != nil || res != adt.ResOverdraft {
		t.Fatalf("holder debit: %q, %v", res, err)
	}
	for _, obj := range []histories.ObjID{"other", "acct"} {
		if err := c.WriteBehind(ctx, "T", obj, adt.CreditInv(1)); err != nil {
			t.Fatal(err)
		}
	}
	prepared := false
	tr := afterPrepare{c.Transport(), func(vote, ok bool) {
		srv.mu.Lock()
		e := srv.branches.live["T"]
		prepared = e != nil && e.state == branchPrepared
		srv.mu.Unlock()
		if vote || !ok {
			t.Errorf("prepare behind a failed Credit: vote=%v ok=%v, want a no vote", vote, ok)
		}
	}}
	c.StampParticipants("T", 1)
	dec, _, err := newCoordinator().RunTransports(ctx, "T", []commitproto.Transport{tr})
	if dec != commitproto.Aborted || err != nil {
		t.Fatalf("round = %v, %v; want a clean abort", dec, err)
	}
	if !prepared {
		t.Fatal("the shard did not prepare the branch: the prepare waited for the owed replies")
	}

	start := time.Now()
	if res, err := c.Call(ctx, "U", "other", adt.DebitInv(1)); err != nil || res != adt.ResOverdraft {
		t.Fatalf("debit of other after the abort: %q, %v; want an Overdraft", res, err)
	}
	if d := time.Since(start); d > lockWait/2 {
		t.Fatalf("debit of other waited %v: the aborted branch still holds its Credit", d)
	}
	resp, err := c.request("", &message{typ: msgTxStatus, tx: "T"}, time.Second)
	if err != nil || resp.typ != msgOutcome || resp.flag != outcomeAborted {
		t.Fatalf("status of T: %+v, %v; want aborted", resp, err)
	}
	for _, tx := range []histories.TxID{"U", "H"} {
		if err := c.Abort(ctx, tx); err != nil {
			t.Fatal(err)
		}
	}

	_ = c.Close()
	srv.Shutdown(time.Second)
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	_ = cat.Close()
	_, srv2, _ := reopenShard(t, dir)
	if srv2.Recovering() || len(srv2.Branches()) != 0 {
		t.Fatalf("restart after the abort: recovering=%v with branches %v, want none", srv2.Recovering(), srv2.Branches())
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
