package netproto

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"hybridcc/internal/adt"
	"hybridcc/internal/commitproto"
	"hybridcc/internal/histories"
	"hybridcc/internal/tstamp"
)

// Two-phase commit over real sockets, driven by the real coordinator
// through the scatter–gather path: which frames reach which shard, on which
// connection, in what order against the decision ledger, and what is left
// behind when a half of an exchange fails.  Shards are real Servers where
// locks and branches matter and scripted ones where the test dictates the
// replies.

// checkGoroutines fails the test if the goroutine count has not returned to
// its present value once every cleanup registered after this call has run
// (cleanups run last-in first-out: call it before starting servers and
// dialing clients, so it judges what is left after ShardClient.Close and
// Server.Shutdown).
func checkGoroutines(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				t.Errorf("goroutine leak: %d before the test, %d after its teardown\n%s",
					before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	})
}

// wireLog is the ordered record of what the scripted shards (and the
// test's hooks) saw.
type wireLog struct {
	mu     sync.Mutex
	events []string
}

func (l *wireLog) add(format string, args ...any) {
	l.mu.Lock()
	l.events = append(l.events, fmt.Sprintf(format, args...))
	l.mu.Unlock()
}

func (l *wireLog) snapshot() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Clone(l.events)
}

// matching returns the logged events that start with prefix.
func (l *wireLog) matching(prefix string) []string {
	var out []string
	for _, ev := range l.snapshot() {
		if strings.HasPrefix(ev, prefix) {
			out = append(out, ev)
		}
	}
	return out
}

// waitFor polls until n events start with prefix.
func (l *wireLog) waitFor(t *testing.T, prefix string, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for len(l.matching(prefix)) < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d events %q never arrived; log: %q", n, prefix, l.snapshot())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

var frameNames = map[byte]string{
	msgCall: "call", msgPrepare: "prepare", msgDecide: "decide", msgAbort: "abort", msgPing: "ping",
}

// yes is the script of a shard that agrees to everything.  A call is
// answered with the transaction's own identifier, so a response read by
// the wrong request is recognizable.
func yes(req message) (message, bool) {
	switch req.typ {
	case msgPrepare:
		return message{typ: msgVote, flag: 1, ts: 10}, false
	case msgCall:
		return message{typ: msgRes, a: req.tx}, false
	default:
		return message{typ: msgOK}, false
	}
}

// startScripted serves a fake shard on loopback: it handshakes as (shard,
// shards), in the state of script's msgHelloResp if it answers the hello
// with one, logs every later request as "<name> <frame> <tx>
// #<connection>" and answers it from script; cut=true closes the
// connection instead of answering — the frame was read, its reply is lost.
func startScripted(t *testing.T, name string, shard, shards int, log *wireLog, script func(req message) (resp message, cut bool)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu    sync.Mutex
		conns []net.Conn
		wg    sync.WaitGroup
	)
	serve := func(nc net.Conn, id int) {
		defer wg.Done()
		defer nc.Close()
		r, w := bufio.NewReader(nc), bufio.NewWriter(nc)
		for {
			req, _, err := readMessage(r, nil)
			if err != nil {
				return
			}
			var resp message
			if req.typ == msgHello {
				resp = message{typ: msgHelloResp, n: protoVersion, ts: uint64(shard), flag: stateServing, ids: []string{fmt.Sprint(shards)}}
				if r, _ := script(req); r.typ == msgHelloResp {
					resp.flag = r.flag
				}
			} else {
				log.add("%s %s %s #%d", name, frameNames[req.typ], req.tx, id)
				var cut bool
				if resp, cut = script(req); cut {
					return
				}
			}
			if _, err := writeMessage(w, nil, &resp); err != nil || w.Flush() != nil {
				return
			}
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, nc)
			id := len(conns) - 1
			mu.Unlock()
			wg.Add(1)
			go serve(nc, id)
		}
	}()
	t.Cleanup(func() {
		_ = ln.Close()
		mu.Lock()
		for _, nc := range conns {
			_ = nc.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	return ln.Addr().String()
}

// twoPhase runs one two-phase commit for tx across the clients the way the
// cluster does: stamp the participant count, then hand the coordinator
// every shard's transport.
func twoPhase(coord *commitproto.Coordinator, tx histories.TxID, clients ...*ShardClient) (commitproto.Decision, error) {
	trs := make([]commitproto.Transport, len(clients))
	for i, c := range clients {
		c.StampParticipants(tx, len(clients))
		trs[i] = c.Transport()
	}
	dec, _, err := coord.RunTransports(context.Background(), tx, trs)
	return dec, err
}

func newCoordinator() *commitproto.Coordinator {
	return commitproto.NewCoordinator(tstamp.NewSource(), time.Second)
}

// partsLen reports how many participant counts the client still holds.
func partsLen(c *ShardClient) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.parts)
}

// touch opens tx's branch on every client with one call, pinning a
// connection on each as a cross-shard transaction's operations do.
func touch(t *testing.T, tx histories.TxID, obj histories.ObjID, clients ...*ShardClient) {
	t.Helper()
	for _, c := range clients {
		if _, err := c.Call(context.Background(), tx, obj, adt.IncInv(1)); err != nil {
			t.Fatalf("%s: call of %s: %v", c.Name(), tx, err)
		}
	}
}

// A no-vote from A must not stop the gather: B's vote, 20 ms behind, is
// read before the abort is written to B's connection, so the abort's reply
// is its own, the connection goes back to the pool with an empty stream,
// and the next transaction to check it out reads its own response.
func TestGatherDrainsEveryStartedRequest(t *testing.T) {
	checkGoroutines(t)
	log := &wireLog{}
	addrA := startScripted(t, "A", 0, 2, log, func(req message) (message, bool) {
		if req.typ == msgPrepare {
			return message{typ: msgVote, flag: 0}, false
		}
		return yes(req)
	})
	addrB := startScripted(t, "B", 1, 2, log, func(req message) (message, bool) {
		if req.typ == msgPrepare {
			time.Sleep(20 * time.Millisecond)
		}
		return yes(req)
	})
	ca := dialTest(t, addrA, 0, 2, ClientOptions{})
	cb := dialTest(t, addrB, 1, 2, ClientOptions{})

	touch(t, "T1", "x", ca, cb)
	dec, err := twoPhase(newCoordinator(), "T1", ca, cb)
	if dec != commitproto.Aborted || err != nil {
		t.Fatalf("round = %v, %v; want a clean abort on A's no-vote", dec, err)
	}
	if got, want := log.matching("B "), []string{"B call T1 #0", "B prepare T1 #0", "B abort T1 #0"}; !slices.Equal(got, want) {
		t.Fatalf("B saw %q, want %q (the abort on the branch's own connection)", got, want)
	}
	if got := log.matching("A abort T1"); len(got) != 1 {
		t.Fatalf("the no-voter saw %d aborts, want 1", len(got))
	}

	res, err := cb.Call(context.Background(), "T2", "x", adt.IncInv(1))
	if err != nil || res != "T2" {
		t.Fatalf("next transaction on B read %q, %v; want its own response %q (a stale reply was left in the stream)", res, err, "T2")
	}
	if got := log.matching("B call T2"); !slices.Equal(got, []string{"B call T2 #0"}) {
		t.Fatalf("T2 travelled %q, want the pooled connection #0", got)
	}
	if err := cb.Abort(context.Background(), "T2"); err != nil {
		t.Fatal(err)
	}
	if n := partsLen(ca) + partsLen(cb); n != 0 {
		t.Fatalf("%d participant counts left behind", n)
	}
}

// No decide frame leaves the client before the decision ledger's write has
// returned, however long it takes; and a ledger that refuses the write
// turns the round into an abort at both shards, with no decide frame ever
// written.
func TestDecisionNeverOutrunsLedger(t *testing.T) {
	for _, ledgerErr := range []error{nil, errors.New("ledger disk full")} {
		t.Run(fmt.Sprintf("ledger error %v", ledgerErr), func(t *testing.T) {
			checkGoroutines(t)
			log := &wireLog{}
			ca := dialTest(t, startScripted(t, "A", 0, 2, log, yes), 0, 2, ClientOptions{})
			cb := dialTest(t, startScripted(t, "B", 1, 2, log, yes), 1, 2, ClientOptions{})
			touch(t, "T1", "x", ca, cb)

			writing, release := make(chan struct{}), make(chan struct{})
			coord := newCoordinator()
			coord.SetDecisionLog(func(histories.TxID, histories.Timestamp, int) error {
				close(writing)
				<-release
				log.add("ledger returned")
				return ledgerErr
			})
			type outcome struct {
				dec commitproto.Decision
				err error
			}
			done := make(chan outcome, 1)
			go func() {
				dec, err := twoPhase(coord, "T1", ca, cb)
				done <- outcome{dec, err}
			}()

			<-writing
			// Both votes are in and the ledger write is stuck: a decide
			// frame written early would arrive within this pause.
			time.Sleep(50 * time.Millisecond)
			for _, ev := range log.snapshot() {
				if strings.Contains(ev, " decide ") || strings.Contains(ev, " abort ") {
					t.Errorf("%q arrived while the ledger write was still in progress", ev)
				}
			}
			close(release)
			out := <-done
			if ledgerErr == nil {
				// The round returns once the decide frames are written;
				// wait for both to be read before comparing the order.
				log.waitFor(t, "A decide", 1)
				log.waitFor(t, "B decide", 1)
			}

			events := log.snapshot()
			ledger := slices.Index(events, "ledger returned")
			if ledgerErr == nil {
				if out.dec != commitproto.Committed || out.err != nil {
					t.Fatalf("round = %v, %v", out.dec, out.err)
				}
				for _, want := range []string{"A decide T1 #0", "B decide T1 #0"} {
					if i := slices.Index(events, want); i < ledger {
						t.Errorf("%q at %d, ledger write returned at %d: %q", want, i, ledger, events)
					}
				}
				return
			}
			if out.dec != commitproto.Aborted || !errors.Is(out.err, ledgerErr) {
				t.Fatalf("round = %v, %v; want aborted by the ledger error", out.dec, out.err)
			}
			if got := log.matching("A decide"); len(got)+len(log.matching("B decide")) != 0 {
				t.Fatalf("decide frames written for an unlogged decision: %q", events)
			}
			for _, want := range []string{"A abort T1 #0", "B abort T1 #0"} {
				if i := slices.Index(events, want); i < ledger {
					t.Errorf("%q at %d, want after the ledger's refusal at %d: %q", want, i, ledger, events)
				}
			}
		})
	}
}

// realPair serves two real shards holding one conflicting counter each
// (read/write scheme: a second Inc waits for the first's locks) and dials
// both.
func realPair(t *testing.T) (ca, cb *ShardClient, srvA, srvB *Server) {
	t.Helper()
	addrA, srvA := startShard(t, 0, 2)
	addrB, srvB := startShard(t, 1, 2)
	ca = dialTest(t, addrA, 0, 2, ClientOptions{})
	cb = dialTest(t, addrB, 1, 2, ClientOptions{})
	for _, c := range []*ShardClient{ca, cb} {
		if err := c.Register("ctr", "Counter", "readwrite"); err != nil {
			t.Fatal(err)
		}
	}
	return ca, cb, srvA, srvB
}

// A shard that cannot be sent its prepare — its connection lost, its
// process gone, or not even dialable — is reported unreachable, while the
// other shard's vote, already on the wire, is still gathered: that shard
// gets the abort on its branch's connection and its locks are free
// afterwards.  Nothing is left in either client's tables.
func TestPrepareScatterSendFailure(t *testing.T) {
	breakB := map[string]func(t *testing.T, cb *ShardClient, srvB *Server){
		"pinned connection lost": func(t *testing.T, cb *ShardClient, _ *Server) {
			touch(t, "T1", "ctr", cb)
			cb.mu.Lock()
			_ = cb.pinned["T1"].nc.Close() // the send half fails at once
			cb.mu.Unlock()
		},
		"server gone": func(t *testing.T, cb *ShardClient, srvB *Server) {
			touch(t, "T1", "ctr", cb)
			srvB.Shutdown(10 * time.Millisecond)
		},
		"listener closed": func(t *testing.T, cb *ShardClient, srvB *Server) {
			srvB.Shutdown(10 * time.Millisecond)
			// Use up the pooled connection the shutdown cut, so that the
			// prepare has to dial and is refused.
			if err := cb.Ping(context.Background()); err == nil {
				t.Fatal("ping of a stopped server succeeded")
			}
		},
	}
	for name, breakB := range breakB {
		t.Run(name, func(t *testing.T) {
			ca, cb, srvA, srvB := realPair(t)
			touch(t, "T1", "ctr", ca)
			breakB(t, cb, srvB)

			dec, err := twoPhase(newCoordinator(), "T1", ca, cb)
			if dec != commitproto.Aborted || err == nil || !strings.Contains(err.Error(), "unreachable: [shard1]") {
				t.Fatalf("round = %v, %v; want aborted with shard1 (and only shard1) unreachable", dec, err)
			}
			if srvHasTx(srvA, "T1") {
				t.Fatal("A's prepared branch never got the abort")
			}
			// A's locks are free: a conflicting increment gets through well
			// inside the 250 ms lock wait.
			if _, err := ca.Call(context.Background(), "T2", "ctr", adt.IncInv(1)); err != nil {
				t.Fatalf("A still holds T1's locks: %v", err)
			}
			if _, err := ca.Commit(context.Background(), "T2"); err != nil {
				t.Fatal(err)
			}
			if n := partsLen(ca) + partsLen(cb); n != 0 {
				t.Fatalf("%d participant counts left behind", n)
			}
			ca.mu.Lock()
			pinned := len(ca.pinned)
			ca.mu.Unlock()
			if pinned != 0 {
				t.Fatalf("%d connections still pinned on A", pinned)
			}
		})
	}
}

// Regression: StampParticipants stored the count, and only unpinning a
// connection deleted it — so every cross-shard commit attempted against a
// shard that could not be given a connection leaked one map entry.
func TestPartsNotLeakedByUnreachableShard(t *testing.T) {
	ca, cb, _, srvB := realPair(t)
	srvB.Shutdown(10 * time.Millisecond)
	coord := newCoordinator()
	for i := 0; i < 5; i++ {
		tx := histories.TxID(fmt.Sprintf("T%d", i))
		touch(t, tx, "ctr", ca)
		if dec, _ := twoPhase(coord, tx, ca, cb); dec != commitproto.Aborted {
			t.Fatalf("%s = %v against a stopped shard", tx, dec)
		}
	}
	if a, b := partsLen(ca), partsLen(cb); a != 0 || b != 0 {
		t.Fatalf("participant counts left behind: %d on the live shard's client, %d on the stopped one's", a, b)
	}
}

// The reply to B's decide frame is lost (B read the frame, then the
// connection was cut): the round still commits, but B's acknowledgement
// never arrives, so the decision is not resolved — its ledger entry stays —
// and background redelivery lands the decision on a fresh connection.  The
// redelivery's acknowledgement proves the same durable apply as the lost
// one, so it is reported.  A's decide is flushed and its reply read by A's
// sweep; the entry is discharged once each participant has counted once.
func TestLostDecideReplyIsRedelivered(t *testing.T) {
	checkGoroutines(t)
	log := &wireLog{}
	var cutOnce sync.Once
	addrB := startScripted(t, "B", 1, 2, log, func(req message) (message, bool) {
		cut := false
		if req.typ == msgDecide {
			cutOnce.Do(func() { cut = true })
		}
		resp, _ := yes(req)
		return resp, cut
	})
	var mu sync.Mutex
	ledger := map[histories.TxID]histories.Timestamp{}
	acks := map[histories.TxID]int{}
	onAck := func(tx histories.TxID) {
		mu.Lock()
		if acks[tx]++; acks[tx] == 2 {
			delete(ledger, tx)
		}
		mu.Unlock()
	}
	ackCount := func() int {
		mu.Lock()
		defer mu.Unlock()
		return acks["T1"]
	}
	ca := dialTest(t, startScripted(t, "A", 0, 2, log, yes), 0, 2, ClientOptions{DecisionAcked: onAck, Timeout: 10 * time.Second})
	cb := dialTest(t, addrB, 1, 2, ClientOptions{DecisionAcked: onAck, Timeout: time.Second})
	touch(t, "T1", "x", ca, cb)

	inLedger := func() bool {
		mu.Lock()
		defer mu.Unlock()
		_, ok := ledger["T1"]
		return ok
	}
	coord := commitproto.NewCoordinator(tstamp.NewSource(), 10*time.Second)
	coord.SetDecisionLog(func(tx histories.TxID, ts histories.Timestamp, _ int) error {
		mu.Lock()
		ledger[tx] = ts
		mu.Unlock()
		return nil
	})

	dec, err := twoPhase(coord, "T1", ca, cb)
	if dec != commitproto.Committed || err != nil {
		t.Fatalf("round = %v, %v; a lost acknowledgement must not undo the decision", dec, err)
	}
	if !inLedger() {
		t.Fatal("decision resolved although B never acknowledged it")
	}
	log.waitFor(t, "B decide T1", 2)
	if got := log.matching("B decide T1"); got[0] != "B decide T1 #0" || got[1] == got[0] {
		t.Fatalf("decide deliveries to B: %q, want the pinned connection, then a fresh one", got)
	}
	if got := log.matching("A decide T1"); len(got) != 1 {
		t.Fatalf("A saw %d decide frames, want 1", len(got))
	}
	for deadline := time.Now().Add(5 * time.Second); ackCount() < 2 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if inLedger() {
		t.Fatal("T1 is still in the ledger after A's reply and B's redelivery were acknowledged")
	}
	cb.mu.Lock()
	pinned := len(cb.pinned)
	cb.mu.Unlock()
	if pinned != 0 {
		t.Fatal("the cut connection is still pinned")
	}
	if err := ca.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cb.Close(); err != nil {
		t.Fatal(err)
	}
	if n := ackCount(); n != 2 {
		t.Fatalf("T1 acknowledged %d times, want once per participant", n)
	}
}

// A committed round returns with its decide frames buffered and their
// replies owed: the branch connections go back to the pool at once.  The
// next transaction on B takes B's connection, whose call carries the
// decide out ahead of its own frame, reads the decide's reply first, in
// wire order, and then its own response (unless the sweep flushed the
// decide first).  Each acknowledgement is reported once.  This is the
// commit-path twin of TestGatherDrainsEveryStartedRequest.
func TestDecideReplyReadByNextUser(t *testing.T) {
	checkGoroutines(t)
	log := &wireLog{}
	var mu sync.Mutex
	acks := map[string]int{}
	opts := func(shard string) ClientOptions {
		return ClientOptions{DecisionAcked: func(tx histories.TxID) {
			mu.Lock()
			acks[shard+" "+string(tx)]++
			mu.Unlock()
		}}
	}
	acked := func(key string) int {
		mu.Lock()
		defer mu.Unlock()
		return acks[key]
	}
	ca := dialTest(t, startScripted(t, "A", 0, 2, log, yes), 0, 2, opts("A"))
	cb := dialTest(t, startScripted(t, "B", 1, 2, log, yes), 1, 2, opts("B"))
	touch(t, "T1", "x", ca, cb)
	if dec, err := twoPhase(newCoordinator(), "T1", ca, cb); dec != commitproto.Committed || err != nil {
		t.Fatalf("round = %v, %v", dec, err)
	}
	for _, c := range []*ShardClient{ca, cb} {
		c.mu.Lock()
		pinned := len(c.pinned)
		c.mu.Unlock()
		if pinned != 0 {
			t.Fatalf("%s: %d connections pinned after the round, want 0", c.Name(), pinned)
		}
	}

	res, err := cb.Call(context.Background(), "T2", "x", adt.IncInv(1))
	if err != nil || res != "T2" {
		t.Fatalf("next transaction on B read %q, %v; want its own response %q", res, err, "T2")
	}
	got := log.matching("B ")
	if want := []string{"B call T1 #0", "B prepare T1 #0", "B decide T1 #0"}; len(got) != 4 || !slices.Equal(got[:3], want) || !strings.HasPrefix(got[3], "B call T2 ") {
		t.Fatalf("B saw %q, want %q and then T2's call", got, want)
	}
	if n := acked("B T1"); n != 1 {
		t.Fatalf("B's decide acknowledged %d times after B's next call, want once", n)
	}
	if err := cb.Abort(context.Background(), "T2"); err != nil {
		t.Fatal(err)
	}
	for _, c := range []*ShardClient{ca, cb} {
		if err := c.Ping(context.Background()); err != nil {
			t.Fatal(err)
		}
		c.mu.Lock()
		for _, rc := range c.idle {
			if len(rc.st.owed) != 0 {
				t.Errorf("%s: a pooled connection still owes %d replies", c.Name(), len(rc.st.owed))
			}
		}
		c.mu.Unlock()
	}
	for deadline := time.Now().Add(5 * time.Second); acked("A T1") == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond) // A's sweep may still be reading
	}
	if a, b := acked("A T1"), acked("B T1"); a != 1 || b != 1 {
		t.Fatalf("decide acknowledged %d times by A and %d by B, want once each", a, b)
	}
}

// B reads the decide frame and hangs, keeping the connection open, and
// nothing else uses that connection: the sweep flushes the decide flushLag
// after the round, reads its reply under the deadline the flush armed,
// closes the connection when the deadline passes, and the decision is
// redelivered on a fresh connection, with no further traffic.
func TestSweepRedeliversStrandedDecide(t *testing.T) {
	checkGoroutines(t)
	log := &wireLog{}
	hang := make(chan struct{})
	var once sync.Once
	addrB := startScripted(t, "B", 1, 2, log, func(req message) (message, bool) {
		if req.typ == msgDecide {
			stall := false
			once.Do(func() { stall = true })
			if stall {
				<-hang
			}
		}
		return yes(req)
	})
	t.Cleanup(func() { close(hang) })
	const timeout = 200 * time.Millisecond
	ca := dialTest(t, startScripted(t, "A", 0, 2, log, yes), 0, 2, ClientOptions{Timeout: timeout})
	cb := dialTest(t, addrB, 1, 2, ClientOptions{Timeout: timeout})
	touch(t, "T1", "x", ca, cb)

	start := time.Now()
	if dec, err := twoPhase(newCoordinator(), "T1", ca, cb); dec != commitproto.Committed || err != nil {
		t.Fatalf("round = %v, %v", dec, err)
	}
	if d := time.Since(start); d >= timeout {
		t.Fatalf("the round took %v: it waited for the decide's reply", d)
	}
	log.waitFor(t, "B decide T1", 2)
	if d := time.Since(start); d < timeout {
		t.Fatalf("redelivered after %v, before the decide's deadline (%v)", d, timeout)
	}
	if got := log.matching("B decide T1"); got[0] != "B decide T1 #0" || got[1] == got[0] {
		t.Fatalf("decide deliveries to B: %q, want the branch's connection, then a fresh one", got)
	}
	if got := log.matching("B "); len(got) != 4 {
		t.Fatalf("B saw %q: traffic other than the transaction and the redelivery", got)
	}
}
