package netproto

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"weak"

	"hybridcc/internal/adt"
	"hybridcc/internal/backoff"
	"hybridcc/internal/commitproto"
	"hybridcc/internal/histories"
	"hybridcc/internal/wal"
)

// The decision outbox over sockets: what happens to a commit or abort
// decision that its first write does not deliver.

// severAfterPrepare is a transport whose prepare, once the shard has
// prepared the branch, has every connection of its client cut before the
// vote is read.
type severAfterPrepare struct {
	commitproto.Transport
	c   *ShardClient
	srv *Server
	t   *testing.T
}

func (s severAfterPrepare) StartPrepare(ctx context.Context, tx histories.TxID, timeout time.Duration) func() (histories.Timestamp, bool, bool) {
	done := s.Transport.StartPrepare(ctx, tx, timeout)
	for deadline := time.Now().Add(5 * time.Second); !srvPrepared(s.srv, tx); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			s.t.Errorf("%s never prepared %s", s.c.Name(), tx)
			break
		}
	}
	s.c.mu.Lock()
	for _, rc := range s.c.idle {
		_ = rc.nc.Close()
	}
	for _, rc := range s.c.pinned {
		_ = rc.nc.Close()
	}
	s.c.mu.Unlock()
	return done
}

// srvPrepared reports whether the server holds a prepared branch of id.
func srvPrepared(s *Server, id histories.TxID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.branches.live[id]
	return e != nil && e.state == branchPrepared
}

// B prepares T1, and B's connections — the branch's and the pooled one
// the abort will be written on — are cut before the vote is read.  The
// coordinator aborts; the abort's write breaks, so the decision falls due,
// and the drain delivers it on a fresh connection: B is left with no
// prepared branch, its locks free.
func TestAbortAfterSeveredPrepareRedelivered(t *testing.T) {
	ca, cb, srvA, srvB := realPair(t)
	if err := cb.Register("other", "Counter", "readwrite"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// T0 holds B's first connection while T1 dials a second; T0's abort
	// pools the first.
	touch(t, "T0", "other", cb)
	touch(t, "T1", "ctr", ca, cb)
	if err := cb.Abort(ctx, "T0"); err != nil {
		t.Fatal(err)
	}
	for _, c := range []*ShardClient{ca, cb} {
		c.StampParticipants("T1", 2)
	}
	trs := []commitproto.Transport{ca.Transport(), severAfterPrepare{cb.Transport(), cb, srvB, t}}
	dec, _, err := newCoordinator().RunTransports(ctx, "T1", trs)
	if dec != commitproto.Aborted || err == nil {
		t.Fatalf("round = %v, %v; want aborted with B unreachable", dec, err)
	}
	if srvHasTx(srvA, "T1") {
		t.Fatal("A's branch never got the abort")
	}
	for deadline := time.Now().Add(5 * time.Second); srvHasTx(srvB, "T1"); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("B's prepared branch never got the abort: the lost abort was not redelivered")
		}
	}
	if _, err := cb.Call(ctx, "T2", "ctr", adt.IncInv(1)); err != nil {
		t.Fatalf("B still holds T1's locks: %v", err)
	}
	if _, err := cb.Commit(ctx, "T2"); err != nil {
		t.Fatal(err)
	}
	if n := outboxLen(cb); n != 0 {
		t.Fatalf("%d decisions left in B's outbox", n)
	}
}

// outboxLen is the number of decisions in c's outbox.
func outboxLen(c *ShardClient) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.out)
}

// stoppedShard dials a real shard and stops it, leaving the client's
// pooled connection dead.
func stoppedShard(t *testing.T, timeout time.Duration) *ShardClient {
	addr, srv := startShard(t, 0, 1)
	c := dialTest(t, addr, 0, 1, ClientOptions{Timeout: timeout})
	srv.Shutdown(10 * time.Millisecond)
	return c
}

// decideMany starts n decisions for T000, T001, …, commits and aborts
// alternating, and runs their completions.
func decideMany(c *ShardClient, n int) []string {
	var txs []string
	for i := 0; i < n; i++ {
		tx := fmt.Sprintf("T%03d", i)
		txs = append(txs, tx)
		if i%2 == 0 {
			c.Transport().StartCommit(context.Background(), histories.TxID(tx), histories.Timestamp(i+1), time.Second)()
		} else {
			c.Transport().StartAbort(context.Background(), histories.TxID(tx), time.Second)()
		}
	}
	return txs
}

// A hundred decisions outstanding to a stopped shard wait in the outbox
// for one drain: the goroutine count rises by the drain alone.
func TestOutboxOneDrainForManyDecisions(t *testing.T) {
	c := stoppedShard(t, time.Second)
	before := runtime.NumGoroutine()
	decideMany(c, 100)
	if n := outboxLen(c); n != 100 {
		t.Fatalf("%d decisions in the outbox, want 100", n)
	}
	if rise := runtime.NumGoroutine() - before; rise > 2 {
		t.Fatalf("goroutines rose by %d with 100 decisions outstanding, want at most 2", rise)
	}
}

// With the shard down, Close gives up within one RPC timeout and names
// every transaction whose decision it could not deliver.
func TestCloseNamesUndeliveredDecisions(t *testing.T) {
	const timeout = 500 * time.Millisecond
	c := stoppedShard(t, timeout)
	txs := decideMany(c, 100)
	start := time.Now()
	err := c.Close()
	if d := time.Since(start); d > timeout {
		t.Errorf("Close took %v, over one RPC timeout (%v)", d, timeout)
	}
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("Close = %v, want ErrUnavailable naming the undelivered decisions", err)
	}
	for _, tx := range txs {
		if !strings.Contains(err.Error(), tx) {
			t.Fatalf("Close's error does not name %s: %v", tx, err)
		}
	}
}

// With the shards up, Close delivers every outstanding decision: the
// decide replies still owed on pooled connections, and the decisions B
// refused once, which are due while the drain's first retry is seconds
// away.  Each acknowledgement reaches DecisionAcked once per participant,
// so the ledger discharges every decision and never over-counts one.
func TestCloseDeliversOutstandingDecisions(t *testing.T) {
	checkGoroutines(t)
	log := &wireLog{}
	var mu sync.Mutex
	refused := map[string]bool{}
	addrB := startScripted(t, "B", 1, 2, log, func(req message) (message, bool) {
		mu.Lock()
		defer mu.Unlock()
		if req.typ == msgDecide && !refused[req.tx] {
			refused[req.tx] = true
			return message{typ: msgErr, a: "not now"}, false
		}
		return yes(req)
	})
	ledger, err := commitproto.OpenLedger("", "", wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	acks := map[histories.TxID]int{}
	opts := ClientOptions{
		DecisionAcked: func(tx histories.TxID) {
			mu.Lock()
			acks[tx]++
			mu.Unlock()
			ledger.Ack(tx)
		},
		BreakerBackoff: backoff.Policy{Base: 20 * time.Second, Cap: 20 * time.Second},
	}
	ca := dialTest(t, startScripted(t, "A", 0, 2, log, yes), 0, 2, opts)
	cb := dialTest(t, addrB, 1, 2, opts)
	coord := newCoordinator()
	coord.SetDecisionLog(ledger.Record)
	var txs []histories.TxID
	for i := 0; i < 5; i++ {
		tx := histories.TxID(fmt.Sprintf("T%d", i))
		txs = append(txs, tx)
		touch(t, tx, "x", ca, cb)
		if dec, err := twoPhase(coord, tx, ca, cb); dec != commitproto.Committed || err != nil {
			t.Fatalf("%s: round = %v, %v", tx, dec, err)
		}
	}
	// B's last refusal is read, so all five of B's decisions are due.
	if err := cb.Ping(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, c := range []*ShardClient{ca, cb} {
		if err := c.Close(); err != nil {
			t.Fatalf("%s: Close = %v, want every decision delivered", c.Name(), err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for _, tx := range txs {
		if acks[tx] != 2 {
			t.Errorf("%s acknowledged %d times, want once per participant", tx, acks[tx])
		}
		if _, ok := ledger.Lookup(tx); ok {
			t.Errorf("%s still in the ledger", tx)
		}
	}
	if got := log.matching("B decide"); len(got) != 10 {
		t.Errorf("B saw %d decide frames, want each of the 5 twice: %q", len(got), got)
	}
}

// A recovering shard refuses the ledgered decision its handshake sends:
// the decision goes to the outbox, and the drain delivers it once the
// shard accepts it, with no further dial and no other traffic to wait for.
func TestHandshakeRefusedDecisionDelivered(t *testing.T) {
	checkGoroutines(t)
	log := &wireLog{}
	var mu sync.Mutex
	decides := 0
	addr := startScripted(t, "S", 0, 1, log, func(req message) (message, bool) {
		mu.Lock()
		defer mu.Unlock()
		switch req.typ {
		case msgHello:
			if decides < 2 {
				return message{typ: msgHelloResp, flag: stateRecovering}, false
			}
		case msgPending:
			return message{typ: msgTxList, ids: []string{"T-pending"}}, false
		case msgDecide:
			if decides++; decides == 1 {
				return message{typ: msgErr, a: "log failing"}, false
			}
		}
		return yes(req)
	})
	var acks atomic.Int32
	c := dialTest(t, addr, 0, 1, ClientOptions{
		DecisionFor: func(tx histories.TxID) (histories.Timestamp, bool) {
			return 90_001, tx == "T-pending"
		},
		DecisionAcked: func(tx histories.TxID) {
			if tx == "T-pending" {
				acks.Add(1)
			}
		},
		BreakerBackoff: backoff.Policy{Base: 20 * time.Millisecond, Cap: 20 * time.Millisecond},
	})
	log.waitFor(t, "S decide T-pending", 2)
	// The redelivered decide's reply is owed; a ping reads it.
	for deadline := time.Now().Add(5 * time.Second); acks.Load() == 0 && time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if err := c.Ping(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if n := acks.Load(); n != 1 {
		t.Fatalf("T-pending acknowledged %d times, want 1", n)
	}
	if n := outboxLen(c); n != 0 {
		t.Fatalf("%d decisions left in the outbox", n)
	}
	if got := log.matching("S decide"); got[0] != "S decide T-pending #0" || got[1] != "S decide T-pending #0" {
		t.Fatalf("decides %q, want both on the handshake's connection", got)
	}
}

// A handshake that parks a refused decision and then fails leaves no
// drain behind: DialShard returns the error, and nothing keeps dialing.
func TestFailedHandshakeStopsDrain(t *testing.T) {
	checkGoroutines(t)
	log := &wireLog{}
	addr := startScripted(t, "S", 0, 1, log, func(req message) (message, bool) {
		switch req.typ {
		case msgHello:
			return message{typ: msgHelloResp, flag: stateRecovering}, false
		case msgPending:
			return message{typ: msgTxList, ids: []string{"T-a", "T-b"}}, false
		case msgDecide:
			return message{typ: msgErr, a: "log failing"}, false
		case msgAbort:
			return message{}, true
		}
		return yes(req)
	})
	_, err := DialShard(addr, 0, 1, ClientOptions{
		Timeout: time.Second,
		DecisionFor: func(tx histories.TxID) (histories.Timestamp, bool) {
			return 90_001, tx == "T-a"
		},
		BreakerBackoff: backoff.Policy{Base: time.Millisecond, Cap: time.Millisecond},
	})
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("DialShard = %v, want the handshake's failure", err)
	}
	time.Sleep(50 * time.Millisecond)
	if got := log.matching("S decide"); len(got) != 1 {
		t.Fatalf("the failed client went on sending: %q", got)
	}
}

// Close stops the drain before it flushes the outbox, and a decision's
// checkout does not send held registrations: with the shard's handshakes
// hanging, the drain retrying a due abort and a registration held, Close
// returns within one RPC timeout, names the abort, and the shard never
// sees the registration.
func TestCloseWithinOneTimeoutWhileDialHangs(t *testing.T) {
	const timeout = 300 * time.Millisecond
	checkGoroutines(t)
	log := &wireLog{}
	var hellos, registers atomic.Int32
	release := make(chan struct{})
	addr := startScripted(t, "S", 0, 1, log, func(req message) (message, bool) {
		switch req.typ {
		case msgHello:
			if hellos.Add(1) > 1 {
				<-release
			}
		case msgRegister:
			registers.Add(1)
		case msgAbort:
			return message{}, true
		}
		return yes(req)
	})
	t.Cleanup(func() { close(release) })
	c, err := DialShard(addr, 0, 1, ClientOptions{
		Timeout:          timeout,
		BreakerThreshold: 1000,
		BreakerBackoff:   backoff.Policy{Base: time.Millisecond, Cap: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Transport().StartAbort(context.Background(), "T1", timeout)() {
		t.Fatal("the abort's reply was cut, yet it reads as delivered")
	}
	c.HoldRegistrations()
	if err := c.Register("x", "Counter", "readwrite"); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); hellos.Load() < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the drain never redialed")
		}
	}
	start := time.Now()
	err = c.Close()
	if d := time.Since(start); d > timeout+100*time.Millisecond {
		t.Errorf("Close took %v, over one RPC timeout (%v)", d, timeout)
	}
	if err == nil || !strings.Contains(err.Error(), "T1") {
		t.Errorf("Close = %v, want it to name T1", err)
	}
	if n := registers.Load(); n != 0 {
		t.Errorf("the shard saw %d held registrations after Close", n)
	}
}

// Close sends no held registration when it resends a due decision: the
// shard refuses a commit decision once, a registration is held, and Close
// delivers the decision alone.
func TestCloseSendsNoHeldRegistrations(t *testing.T) {
	checkGoroutines(t)
	log := &wireLog{}
	var decides, registers atomic.Int32
	addr := startScripted(t, "S", 0, 1, log, func(req message) (message, bool) {
		switch req.typ {
		case msgRegister:
			registers.Add(1)
		case msgDecide:
			if decides.Add(1) == 1 {
				return message{typ: msgErr, a: "not now"}, false
			}
		}
		return yes(req)
	})
	c, err := DialShard(addr, 0, 1, ClientOptions{
		Timeout:        time.Second,
		BreakerBackoff: backoff.Policy{Base: 20 * time.Second, Cap: 20 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Transport().StartCommit(context.Background(), "T1", 7, time.Second)()
	if err := c.Ping(context.Background()); err != nil { // reads the refusal
		t.Fatal(err)
	}
	c.HoldRegistrations()
	if err := c.Register("x", "Counter", "readwrite"); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close = %v, want the refused decision delivered", err)
	}
	if n := decides.Load(); n != 2 {
		t.Errorf("the shard saw %d decides, want 2", n)
	}
	if n := registers.Load(); n != 0 {
		t.Errorf("Close sent %d held registrations", n)
	}
}

// An acknowledgement read by another transaction's exchange, which keeps
// its connection pinned, takes its decision out of the outbox when that
// exchange ends: Close does not name it.
func TestAckReadOnPinnedConnectionSettles(t *testing.T) {
	checkGoroutines(t)
	log := &wireLog{}
	addr := startScripted(t, "S", 0, 1, log, yes)
	var acks atomic.Int32
	c, err := DialShard(addr, 0, 1, ClientOptions{
		Timeout:       time.Second,
		DecisionAcked: func(histories.TxID) { acks.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Transport().StartCommit(context.Background(), "T1", 7, time.Second)()
	touch(t, "T2", "x", c) // T2 checks out the pooled connection, reads T1's ack, keeps it
	if n := acks.Load(); n != 1 {
		t.Fatalf("T1 acknowledged %d times, want 1", n)
	}
	if n := outboxLen(c); n != 0 {
		t.Errorf("%d decisions left in the outbox after T1's ack", n)
	}
	if err := c.Close(); err != nil {
		t.Errorf("Close = %v, naming an acknowledged decision", err)
	}
}

// Connections closed because the pool is full keep nothing alive: once
// dropped, each is collected with its buffers.
func TestClosedConnectionsAreCollected(t *testing.T) {
	addr, _ := startShard(t, 0, 1)
	c := dialTest(t, addr, 0, 1, ClientOptions{})
	if err := c.Register("ctr", "Counter", "hybrid"); err != nil {
		t.Fatal(err)
	}
	const n = 12 // transactions at once, beyond the pool's 8 idle connections
	var txs []histories.TxID
	for i := 0; i < n; i++ {
		tx := histories.TxID(fmt.Sprintf("T%d", i))
		txs = append(txs, tx)
		touch(t, tx, "ctr", c)
	}
	conns := pinnedConns(c)
	if len(conns) != n {
		t.Fatalf("%d connections pinned, want %d", len(conns), n)
	}
	for _, tx := range txs {
		if _, err := c.Commit(context.Background(), tx); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.GC()
	live := 0
	for _, p := range conns {
		if p.Value() != nil {
			live++
		}
	}
	c.mu.Lock()
	idle := len(c.idle)
	c.mu.Unlock()
	if live != idle {
		t.Fatalf("%d of %d connections still in memory, %d of them pooled: the closed ones leak", live, n, idle)
	}
}

// pinnedConns returns weak pointers to c's pinned connections.
func pinnedConns(c *ShardClient) []weak.Pointer[rpcConn] {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []weak.Pointer[rpcConn]
	for _, rc := range c.pinned {
		out = append(out, weak.Make(rc))
	}
	return out
}

// TestSweepFlushRacesCheckout: cross-shard commits whose decisions wait in
// their connections' buffers, each followed by a pause around flushLag and
// then the next transaction's first requests — a write-behind call on one
// shard, a call on the other — so the sweep's flush of a connection races
// a checkout of it.  Two workers share the clients.  Every decision is
// applied once and acknowledged once per shard, and Close finds nothing
// undelivered.
func TestSweepFlushRacesCheckout(t *testing.T) {
	const workers, rounds = 2, 100
	var mu sync.Mutex
	acks := map[histories.TxID]int{}
	opts := ClientOptions{DecisionAcked: func(tx histories.TxID) {
		mu.Lock()
		acks[tx]++
		mu.Unlock()
	}}
	var cs [2]*ShardClient
	for i := range cs {
		addr, _ := startShard(t, i, len(cs))
		cs[i] = dialTest(t, addr, i, len(cs), opts)
		if err := cs[i].Register("x", "Counter", "hybrid"); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	coord := newCoordinator()
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 1))
			for i := range rounds {
				tx := histories.TxID(fmt.Sprintf("W%d-%d", w, i))
				if err := cs[0].WriteBehind(ctx, tx, "x", adt.IncInv(1)); err != nil {
					t.Errorf("%s: write-behind Inc: %v", tx, err)
					return
				}
				if _, err := cs[1].Call(ctx, tx, "x", adt.IncInv(1)); err != nil {
					t.Errorf("%s: Inc: %v", tx, err)
					return
				}
				if dec, err := twoPhase(coord, tx, cs[0], cs[1]); dec != commitproto.Committed || err != nil {
					t.Errorf("%s: round = %v, %v", tx, dec, err)
					return
				}
				time.Sleep(time.Duration(rng.Int64N(int64(2 * flushLag))))
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i, c := range cs {
		tx := histories.TxID(fmt.Sprintf("R%d", i))
		got, err := c.Call(ctx, tx, "x", adt.CtrReadInv())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Commit(ctx, tx); err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprint(workers * rounds); got != want {
			t.Errorf("shard %d counted %s increments, want %s", i, got, want)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(acks) != workers*rounds {
		t.Errorf("%d transactions acknowledged, want %d", len(acks), workers*rounds)
	}
	for tx, n := range acks {
		if n != len(cs) {
			t.Errorf("%s acknowledged %d times, want once per shard", tx, n)
		}
	}
}
