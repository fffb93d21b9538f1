package hybridcc

import (
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// wireCounter wraps shard listeners.  Over every connection they accept it
// counts direction flips — a request/response exchange flips twice, so
// flips/2 is round trips, as benchmark/proxy.go counts them — and it keeps
// the connections still open.
type wireCounter struct {
	flips atomic.Int64
	mu    sync.Mutex
	conns map[*countedConn]bool
}

func newWireCounter() *wireCounter { return &wireCounter{conns: make(map[*countedConn]bool)} }

func (w *wireCounter) wrap(ln net.Listener) net.Listener { return countedListener{ln, w} }

// roundTrips is the exchanges counted so far.
func (w *wireCounter) roundTrips() float64 { return float64(w.flips.Load()) / 2 }

// open reports how many accepted connections are not yet closed.
func (w *wireCounter) open() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.conns)
}

// sever closes every open connection from the shard's side.
func (w *wireCounter) sever() {
	w.mu.Lock()
	defer w.mu.Unlock()
	for c := range w.conns {
		_ = c.Conn.Close()
	}
}

type countedListener struct {
	net.Listener
	w *wireCounter
}

func (l countedListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	c := &countedConn{Conn: nc, w: l.w}
	l.w.mu.Lock()
	l.w.conns[c] = true
	l.w.mu.Unlock()
	return c, nil
}

// countedConn is the shard's side of one connection; dir is the direction
// of the last data (1 read from the client, 2 written to it).
type countedConn struct {
	net.Conn
	w   *wireCounter
	dir atomic.Int32
}

func (c *countedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 && c.dir.Swap(1) != 1 {
		c.w.flips.Add(1)
	}
	return n, err
}

func (c *countedConn) Write(p []byte) (int, error) {
	if len(p) > 0 && c.dir.Swap(2) != 2 {
		c.w.flips.Add(1)
	}
	return c.Conn.Write(p)
}

func (c *countedConn) Close() error {
	c.w.mu.Lock()
	delete(c.w.conns, c)
	c.w.mu.Unlock()
	return c.Conn.Close()
}

// nameOn returns a name the cluster places on the given shard.
func nameOn(c *Cluster, shard int, prefix string) string {
	for i := 0; ; i++ {
		if name := fmt.Sprintf("%s-%d-%d", prefix, shard, i); c.ShardFor(name) == shard {
			return name
		}
	}
}

// dialAccounts dials n in-test shards whose lock waits last lockWait, with
// every RPC bounded by rpc, and registers perShard accounts on each shard.
func dialAccounts(t testing.TB, n, perShard int, lockWait, rpc time.Duration, wc *wireCounter) (*Cluster, [][]*Account) {
	t.Helper()
	var wrap func(net.Listener) net.Listener
	if wc != nil {
		wrap = wc.wrap
	}
	addrs := startNetShardsWith(t, n, lockWait, wrap)
	accts := make([][]*Account, n)
	c, err := Dial(addrs, func(cl *Cluster) error {
		for s := range accts {
			for i := 0; i < perShard; i++ {
				a, err := cl.NewAccount(nameOn(cl, s, fmt.Sprintf("acct%d", i)))
				if err != nil {
					return err
				}
				accts[s] = append(accts[s], a)
			}
		}
		return nil
	}, WithCommitTimeout(rpc))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c, accts
}

// balanceIs checks an account's balance over the wire, in a transaction
// that aborts: Debit(want+1) overdraws and Debit(want) does not.
func balanceIs(c *Cluster, a *Account, want int64) error {
	tx := c.Begin()
	defer tx.Abort()
	over, err := a.Debit(tx, want+1)
	if err != nil {
		return err
	}
	exact, err := a.Debit(tx, want)
	if err != nil {
		return err
	}
	if over || !exact {
		return fmt.Errorf("balance of %s is not %d (Debit(%d) ok=%v, Debit(%d) ok=%v)", a.obj.Name(), want, want+1, over, want, exact)
	}
	return nil
}

// overdrawsPromptly checks that a Debit on a answers Overdraft without a
// lock wait: no branch still holds a Credit there.
func overdrawsPromptly(t *testing.T, c *Cluster, a *Account) {
	t.Helper()
	tx := c.Begin()
	defer tx.Abort()
	start := time.Now()
	ok, err := a.Debit(tx, 1)
	if err != nil || ok {
		t.Fatalf("Debit(1) on %s: ok=%v err=%v, want an Overdraft", a.obj.Name(), ok, err)
	}
	if d := time.Since(start); d > 150*time.Millisecond {
		t.Fatalf("Debit(1) on %s waited %v: an aborted branch still holds its Credit", a.obj.Name(), d)
	}
}

// holdOverdraft starts a transaction whose Debit → Overdraft on a blocks
// every Credit of a until it ends.
func holdOverdraft(t *testing.T, c *Cluster, a *Account) *DTx {
	t.Helper()
	h := c.Begin()
	if ok, err := a.Debit(h, 1000); err != nil || ok {
		t.Fatalf("holder's Debit: ok=%v err=%v, want an Overdraft", ok, err)
	}
	return h
}

// TestWriteBehindCreditTimesOutAtCommit: a write-behind Credit returns at
// once, waits out the shard's lock wait behind a Debit → Overdraft holder,
// and its error surfaces at Commit as a retryable ErrTimeout with the
// shard branch aborted.  Atomically's retry then lands it exactly once.
func TestWriteBehindCreditTimesOutAtCommit(t *testing.T) {
	c, accts := dialAccounts(t, 2, 1, 200*time.Millisecond, 2*time.Second, nil)
	a := accts[0][0]

	h := holdOverdraft(t, c, a)
	tx := c.Begin()
	start := time.Now()
	if err := a.Credit(tx, 5); err != nil {
		t.Fatalf("write-behind Credit: %v", err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("write-behind Credit took %v: it waited for its reply", d)
	}
	err := tx.Commit()
	if !errors.Is(err, ErrTimeout) || !retryable(err) || !strings.Contains(err.Error(), "Credit(5)") {
		t.Fatalf("Commit after a blocked Credit: %v, want a retryable ErrTimeout naming Credit(5)", err)
	}
	_ = h.Abort()
	overdrawsPromptly(t, c, a)

	h = holdOverdraft(t, c, a)
	var attempts atomic.Int32
	done := make(chan error, 1)
	go func() {
		done <- c.Atomically(func(tx *DTx) error {
			attempts.Add(1)
			return a.Credit(tx, 5)
		})
	}()
	time.Sleep(300 * time.Millisecond) // past the shard's lock wait
	_ = h.Abort()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if n := attempts.Load(); n < 2 {
		t.Fatalf("%d attempts: the first should have timed out behind the holder", n)
	}
	if err := balanceIs(c, a, 5); err != nil {
		t.Fatal(err)
	}
}

// TestWriteBehindCrossShardVotesNo: the same blocked Credit in a
// cross-shard transaction makes its shard vote no at Prepare, and both
// legs abort.
func TestWriteBehindCrossShardVotesNo(t *testing.T) {
	c, accts := dialAccounts(t, 2, 1, 200*time.Millisecond, 2*time.Second, nil)
	a, b := accts[0][0], accts[1][0]

	h := holdOverdraft(t, c, b)
	tx := c.Begin()
	if err := a.Credit(tx, 5); err != nil {
		t.Fatal(err)
	}
	if err := b.Credit(tx, 5); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrCommitAborted) {
		t.Fatalf("cross-shard Commit after a blocked Credit: %v, want ErrCommitAborted", err)
	}
	_ = h.Abort()
	overdrawsPromptly(t, c, a)
	overdrawsPromptly(t, c, b)
	if st := c.Stats(); st.ProtocolAborts != 1 {
		t.Fatalf("%d protocol aborts, want 1", st.ProtocolAborts)
	}
}

// TestDialedPaymentRoundTrips pins the exchanges a dialed payment costs,
// as the shards' listeners count them, each shape measured after a
// warm-up that leaves the connections it needs pooled.  One shard,
// payment(1) or payment(7): the Debit, the owed Credit replies, the commit.
// Cross-shard payment(1): the Debit, two prepares — the Credit's shard
// answers the owed Credit and the vote in one exchange — and two
// decisions.  A cross-shard commit returns at its decisions, buffered
// unsent: back to back, each rides ahead of its connection's next frame,
// so N payments cost 3N exchanges.  With that Credit blocked behind a
// holder, the round aborts in no more than five: each shard is sent its
// abort once, by the decision round, flushed at once.  The committed cross
// shape is counted last, over one payment that the aborted ones warm up,
// in a window that Close ends: Close flushes and reads the two decisions.
func TestDialedPaymentRoundTrips(t *testing.T) {
	wc := newWireCounter()
	c, accts := dialAccounts(t, 2, 8, 200*time.Millisecond, 2*time.Second, wc)
	from := accts[0][0]
	if err := c.Atomically(func(tx *DTx) error { return from.Credit(tx, 1<<40) }); err != nil {
		t.Fatal(err)
	}
	pay := func(to []*Account) (float64, error) {
		before := wc.roundTrips()
		tx := c.Begin()
		if ok, err := from.Debit(tx, int64(len(to))); err != nil || !ok {
			_ = tx.Abort()
			return 0, fmt.Errorf("debit: ok=%v err=%v", ok, err)
		}
		for _, a := range to {
			if err := a.Credit(tx, 1); err != nil {
				_ = tx.Abort()
				return 0, err
			}
		}
		err := tx.Commit()
		return wc.roundTrips() - before, err
	}
	for _, tc := range []struct {
		name string
		to   []*Account
		want float64
	}{
		{"payment(1)", accts[0][1:2], 3},
		{"payment(7)", accts[0][1:8], 3},
	} {
		var rt float64
		for i := 0; i < 2; i++ {
			var err error
			if rt, err = pay(tc.to); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		if rt != tc.want {
			t.Errorf("%s took %v round trips, want %v", tc.name, rt, tc.want)
		}
	}

	// Back to back, a cross payment(1) costs three exchanges: its Debit
	// carries the last decide to the Debit's shard, its Credit and prepare
	// carry the last decide to the other, and the shards' replies ride on
	// the responses.  A window in which the client paused past the sweep's
	// lag (a GC, a slow scheduler) has a decide sent alone, so the best of
	// ten windows counts.
	const n = 10
	best := math.Inf(1)
	for w := 0; w < 10 && best > 3*n; w++ {
		before := wc.roundTrips()
		for i := 0; i < n; i++ {
			if _, err := pay(accts[1][2:3]); err != nil {
				t.Fatalf("cross payment(1): %v", err)
			}
		}
		best = min(best, wc.roundTrips()-before)
	}
	if best > 3*n {
		t.Errorf("%d back-to-back cross payment(1)s took at best %v round trips, want %d", n, best, 3*n)
	}

	to := accts[1][1]
	h := holdOverdraft(t, c, to)
	var rt float64
	for i := 0; i < 2; i++ {
		var err error
		if rt, err = pay([]*Account{to}); !errors.Is(err, ErrCommitAborted) {
			_ = h.Abort()
			t.Fatalf("cross payment(1) behind a blocked Credit: %v, want ErrCommitAborted", err)
		}
	}
	if rt > 5 {
		t.Errorf("aborted cross payment(1) took %v round trips, want at most 5", rt)
	}
	if err := h.Abort(); err != nil {
		t.Fatal(err)
	}

	before := wc.roundTrips()
	if _, err := pay(accts[1][1:2]); err != nil {
		t.Fatalf("cross payment(1): %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if rt := wc.roundTrips() - before; rt != 5 {
		t.Errorf("cross payment(1) took %v round trips, want 5", rt)
	}
}

// TestWriteBehindLongTransaction: one transaction of 10 000 Credits on one
// shard commits, each round trip inside the RPC timeout, because the
// window makes the client read the owed replies every 64 calls.
func TestWriteBehindLongTransaction(t *testing.T) {
	const credits = 10000
	wc := newWireCounter()
	c, accts := dialAccounts(t, 1, 1, time.Second, 2*time.Second, wc)
	a := accts[0][0]
	before := wc.roundTrips()
	tx := c.Begin()
	for i := 0; i < credits; i++ {
		if err := a.Credit(tx, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Every 65th Credit goes as a plain call that reads the 64 owed
	// replies: 153 of them, then the last replies and the commit.
	rt := wc.roundTrips() - before
	if rt < credits/65 || rt > 2*credits/64 {
		t.Fatalf("%d Credits took %.0f round trips, want about %d", credits, rt, credits/65+2)
	}
	if err := balanceIs(c, a, credits); err != nil {
		t.Fatal(err)
	}
}

// TestWriteBehindDeadlineArmedByReader: the wait for an owed reply is
// bounded from the request that reads it, so a body that sleeps past the
// RPC timeout between a Credit and its commit still commits, first time.
func TestWriteBehindDeadlineArmedByReader(t *testing.T) {
	const rpc = 200 * time.Millisecond
	c, accts := dialAccounts(t, 1, 1, time.Second, rpc, nil)
	a := accts[0][0]
	attempts := 0
	if err := c.Atomically(func(tx *DTx) error {
		attempts++
		if err := a.Credit(tx, 7); err != nil {
			return err
		}
		time.Sleep(rpc + 100*time.Millisecond)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if attempts != 1 {
		t.Fatalf("%d attempts, want 1", attempts)
	}
	if err := balanceIs(c, a, 7); err != nil {
		t.Fatal(err)
	}
}

// TestWriteBehindWindowAfterIdle: write-behind Credits whose frames
// overflow the connection's buffer, on a pooled connection idle past the
// RPC timeout, commit first time: the write is bounded from when it is
// made, not by the deadline the connection's last request armed.
func TestWriteBehindWindowAfterIdle(t *testing.T) {
	const rpc = 200 * time.Millisecond
	const credits = 48 // a kilobyte a frame: more than the buffer holds
	addrs := startNetShardsWith(t, 1, time.Second, nil)
	var a *Account
	c, err := Dial(addrs, func(cl *Cluster) error {
		var err error
		a, err = cl.NewAccount(strings.Repeat("a", 1000))
		return err
	}, WithCommitTimeout(rpc))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	time.Sleep(rpc + 100*time.Millisecond)
	attempts := 0
	if err := c.Atomically(func(tx *DTx) error {
		attempts++
		for i := 0; i < credits; i++ {
			if err := a.Credit(tx, 1); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if attempts != 1 {
		t.Fatalf("%d attempts, want 1", attempts)
	}
	if err := balanceIs(c, a, credits); err != nil {
		t.Fatal(err)
	}
}

// TestDialedCloseLeavesNothing: after Close, a dialed client that left one
// transaction aborted with owed replies and one on a broken connection
// has no goroutine left, and no shard holds a connection from it.
func TestDialedCloseLeavesNothing(t *testing.T) {
	wc := newWireCounter()
	addrs := startNetShardsWith(t, 2, time.Second, wc.wrap)
	base := runtime.NumGoroutine()
	var a, b *Account
	c, err := Dial(addrs, func(cl *Cluster) error {
		var err error
		if a, err = cl.NewAccount(nameOn(cl, 0, "a")); err != nil {
			return err
		}
		b, err = cl.NewAccount(nameOn(cl, 1, "b"))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	owing := c.Begin()
	for i := 0; i < 3; i++ {
		if err := a.Credit(owing, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := owing.Abort(); err != nil {
		t.Fatal(err)
	}

	broken := c.Begin()
	if _, err := b.Debit(broken, 1); err != nil {
		t.Fatal(err)
	}
	wc.sever()
	if err := b.Credit(broken, 1); err != nil {
		t.Fatal(err) // queued: nothing touched the wire yet
	}
	if err := broken.Commit(); !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("Commit over a severed connection: %v, want ErrShardUnavailable", err)
	}

	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base || wc.open() > 0 {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("after Close: %d goroutines (%d before Dial), %d shard connections open\n%s",
				runtime.NumGoroutine(), base, wc.open(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestOutOfDomainArgumentRefused: a typed operation given an argument
// outside its domain fails at once, before any call, on a System, a
// Cluster and a dialed Cluster, and Atomically does not retry it.
func TestOutOfDomainArgumentRefused(t *testing.T) {
	const wait = 200 * time.Millisecond
	type target struct {
		name string
		run  func(body func(Txn) error) error
		a    *Account
		ctr  *Counter
	}
	var targets []target

	sys := NewSystem(WithLockWait(wait))
	targets = append(targets, target{"System", func(body func(Txn) error) error {
		return sys.Atomically(func(tx *Tx) error { return body(tx) })
	}, Must(sys.NewAccount("a")), Must(sys.NewCounter("n"))})

	cl, err := NewCluster(2, WithLockWait(wait))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	targets = append(targets, target{"Cluster", func(body func(Txn) error) error {
		return cl.Atomically(func(tx *DTx) error { return body(tx) })
	}, Must(cl.NewAccount("a")), Must(cl.NewCounter("n"))})

	var da *Account
	var dn *Counter
	dialed, err := Dial(startNetShardsWith(t, 2, wait, nil), func(c *Cluster) error {
		var err error
		if da, err = c.NewAccount("a"); err != nil {
			return err
		}
		dn, err = c.NewCounter("n")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dialed.Close()
	targets = append(targets, target{"dialed Cluster", func(body func(Txn) error) error {
		return dialed.Atomically(func(tx *DTx) error { return body(tx) })
	}, da, dn})

	for _, tg := range targets {
		for _, op := range []struct {
			call string
			body func(Txn) error
		}{
			{"Credit(-1)", func(tx Txn) error { return tg.a.Credit(tx, -1) }},
			{"Debit(-1)", func(tx Txn) error { _, err := tg.a.Debit(tx, -1); return err }},
			{"Post(0)", func(tx Txn) error { return tg.a.Post(tx, 0) }},
			{"Inc(-1)", func(tx Txn) error { return tg.ctr.Inc(tx, -1) }},
		} {
			attempts := 0
			start := time.Now()
			err := tg.run(func(tx Txn) error {
				attempts++
				return op.body(tx)
			})
			elapsed := time.Since(start)
			if !errors.Is(err, ErrInvalidArgument) || !strings.Contains(err.Error(), op.call) {
				t.Errorf("%s: %s: %v, want ErrInvalidArgument naming the call", tg.name, op.call, err)
			}
			if attempts != 1 || elapsed > 10*time.Millisecond {
				t.Errorf("%s: %s: %d attempts in %v, want 1 in < 10ms", tg.name, op.call, attempts, elapsed)
			}
		}
	}
}

// TestIdleCommitReleasesLocks: a committed cross-shard round leaves its
// decisions buffered on their connections for a next frame, and no next
// frame has to come.  With no more traffic from the client, the sweep
// flushes them, so a second client's Debit on the debited account is
// granted within 50 ms, far inside the shards' lock wait.  When the
// client's next transaction starts with a write-behind Credit on the
// connection that holds the decision and then stays open, the Credit's
// frame waits behind the decision, and the sweep flushes both although
// the transaction holds the connection.
func TestIdleCommitReleasesLocks(t *testing.T) {
	const lockWait = 2 * time.Second
	addrs := startNetShardsWith(t, 2, lockWait, nil)
	open := func() (*Cluster, [3]*Account) {
		var a [3]*Account
		c, err := Dial(addrs, func(cl *Cluster) error {
			for i, shard := range []int{0, 1, 0} {
				var err error
				if a[i], err = cl.NewAccount(nameOn(cl, shard, fmt.Sprintf("idle%d", i))); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = c.Close() })
		return c, a
	}
	c1, a := open()
	c2, b := open()
	from, to, other := a[0], a[1], a[2]
	if err := c1.Atomically(func(tx *DTx) error { return from.Credit(tx, 100) }); err != nil {
		t.Fatal(err)
	}
	for _, next := range []string{"idle", "write-behind Credit"} {
		tx := c1.Begin()
		if ok, err := from.Debit(tx, 1); err != nil || !ok {
			t.Fatalf("Debit: ok=%v err=%v", ok, err)
		}
		if err := to.Credit(tx, 1); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		var open *DTx
		if next != "idle" {
			open = c1.Begin()
			if err := other.Credit(open, 1); err != nil {
				t.Fatal(err)
			}
		}
		tx2 := c2.Begin()
		start := time.Now()
		ok, err := b[0].Debit(tx2, 1)
		d := time.Since(start)
		if err != nil || !ok {
			t.Fatalf("%s: second client's Debit: ok=%v err=%v after %v", next, ok, err, d)
		}
		if d > 50*time.Millisecond {
			t.Errorf("%s: second client's Debit waited %v for a committed branch's decision", next, d)
		}
		if err := tx2.Commit(); err != nil {
			t.Fatal(err)
		}
		if open != nil {
			time.Sleep(20 * time.Millisecond)
			if err := open.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
}
