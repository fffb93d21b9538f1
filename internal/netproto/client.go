package netproto

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"net"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hybridcc/internal/backoff"
	"hybridcc/internal/baseline"
	"hybridcc/internal/commitproto"
	"hybridcc/internal/core"
	"hybridcc/internal/histories"
	"hybridcc/internal/spec"
)

// ShardClient is one dialed shard: it implements core.RemoteShard (the
// operation path of a remote System), and its Transport view implements
// commitproto.Transport (the 2PC message path of the cluster
// coordinator), so the same connection pool carries calls, votes, and
// decisions.  The separate Transport adapter keeps the protocol's
// Start methods off the client's own operation API.
//
// Connections are pinned per transaction: a transaction's first RPC
// checks a connection out of the pool and every later RPC of that
// transaction reuses it, until commit or abort returns it.  The server
// relies on this — a dying connection aborts exactly the unprepared
// transactions that were pinned to it.
//
// Each connection follows the rules of connState.step (conn.go): a
// WriteBehind call's reply and a decision's are owed and read before the
// next response, and a connection owing decisions' replies goes back to
// the pool at once, for its next user, the idle sweep or Close to read the
// acknowledgements and report them to DecisionAcked; one holding a commit
// decision unflushed goes first, its next frame carrying it.  Until the
// shard applies a decision, a fast-path commit there could draw a
// timestamp below it, so Commit carries the largest decision timestamp
// sent to the shard, and the shard commits above it.
//
// Every commit and abort decision waits in the client's outbox (conn.go)
// from before its first write until the shard acknowledges it or no longer
// knows the branch.  One whose connection breaks, or that the shard
// refuses, falls due, and the client's one drain goroutine resends it with
// backoff.  Combined with the handshake's pending-branch resolution — a
// freshly dialed shard in the recovering state is fed decisions from
// DecisionFor, and branches this client Owns with no ledgered decision
// are presumed aborted — a prepared branch always learns its fate from
// its own coordinator, however many crashes intervene.
type ShardClient struct {
	addr   string
	shard  int
	shards int
	opts   ClientOptions
	bk     *breaker

	mu     sync.Mutex
	idle   []*rpcConn
	pinned map[histories.TxID]*rpcConn
	parts  map[histories.TxID]int
	// lost holds the transactions whose pinned connection broke: a restart
	// may have forgotten their branch, and a call must not begin a new one.
	lost map[histories.TxID]struct{}
	out  outbox
	// draining is set while the drain goroutine runs.
	draining, closed bool

	// decided is the largest timestamp sent to the shard in a commit
	// decision: a fast-path commit's lower bound.
	decided atomic.Uint64

	// reg holds the registrations made inside Dial's setup until the shard
	// is sent them as one batch (HoldRegistrations).
	reg regQueue

	quit chan struct{}
	wg   sync.WaitGroup
}

// regQueue is a shard client's held registrations.  Its lock is held
// across a batch's round trip, so a request that finds registrations
// pending waits for them to be acknowledged instead of overtaking them.
type regQueue struct {
	mu      sync.Mutex
	holding bool
	entries []CatalogEntry
	err     error // the first batch the shard refused while holding
	// pending is set while entries are queued or in flight: the one check
	// every other request makes.
	pending atomic.Bool
}

// ClientOptions configures a ShardClient.
type ClientOptions struct {
	// Timeout bounds each RPC round trip (default 5s).
	Timeout time.Duration
	// DecisionFor reports the logged commit decision for a transaction, if
	// any — the client-side decision ledger.  When a dialed shard is
	// recovering, each of its pending prepared branches is resolved from
	// this ledger (decision found → commit at its timestamp) or presumed
	// aborted (not found).  Nil means no decisions are known.
	DecisionFor func(tx histories.TxID) (histories.Timestamp, bool)
	// Owns reports whether this client coordinated the given transaction
	// — in practice, whether its identifier carries one of the prefixes
	// this client's decision ledger has dialed under.  Presumed abort is a
	// coordinator's rule, so a recovering shard's pending branch may be
	// aborted only by the client that owns it; a branch that is neither in
	// the ledger nor owned is left pending for its own coordinator (the
	// shard keeps refusing new work until every branch resolves — 2PC
	// blocks rather than guesses).  Nil means this client is the cluster's
	// sole coordinator and resolves every branch.
	Owns func(tx histories.TxID) bool
	// DecisionAcked is told of each decision's acknowledgement — the
	// shard applied it durably — as it is read, a resent one's included,
	// so the ledger can discharge what every participant acked.
	DecisionAcked func(tx histories.TxID)
	// BreakerThreshold is the number of consecutive transport failures
	// that opens the per-shard circuit breaker; while open, requests fail
	// fast with ErrShardDown instead of burning a dial timeout each.
	// Zero or negative means the default of 3.
	BreakerThreshold int
	// BreakerBackoff paces half-open probes of an open breaker, and the
	// outbox's resends, with jittered exponential delays.  The zero value
	// means backoff.Default() (100ms doubling to a 2s cap).
	BreakerBackoff backoff.Policy
}

// rpcConn is one pooled connection with its buffers and its protocol
// state.  A connection is used by one exchange at a time (pool checkout or
// transaction pinning makes it exclusive): mu is held from its first step
// until run returns, and by the sweep, which may flush a pinned one.
type rpcConn struct {
	mu   sync.Mutex
	nc   net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
	rbuf []byte
	wbuf []byte
	st   connState
	tx   histories.TxID // the transaction it is pinned to, if any
	// sweep, touched under the client's mu, flushes and reads what the
	// connection owes flushLag after it was pooled owing it.
	sweep *time.Timer
}

// flushLag bounds how long a commit decision waits in a connection's
// buffer for a next frame to ride on, and so how much longer its branch
// holds its locks, before the sweep flushes it.  At 200 µs the sweep beat
// busy clients' next frames (wire-cross, 2 vCPU: 3.17 round trips, not 3.07).
const flushLag = time.Millisecond

// DialShard connects to a shard server, verifies the handshake (shard
// index and count must match what the caller routes by), and resolves the
// shard's pending branches if it is recovering.
func DialShard(addr string, shard, shards int, opts ClientOptions) (*ShardClient, error) {
	if opts.Timeout <= 0 {
		opts.Timeout = 5 * time.Second
	}
	c := &ShardClient{
		addr:   addr,
		shard:  shard,
		shards: shards,
		opts:   opts,
		bk:     newBreaker(shard, opts.BreakerThreshold, opts.BreakerBackoff),
		pinned: make(map[histories.TxID]*rpcConn),
		parts:  make(map[histories.TxID]int),
		lost:   make(map[histories.TxID]struct{}),
		out:    outbox{},
		quit:   make(chan struct{}),
	}
	conn, err := c.dial(opts.Timeout)
	if err != nil {
		close(c.quit) // stops a drain the handshake's refusals woke
		c.wg.Wait()
		return nil, err
	}
	c.finish(conn, action{done: true, place: pool})
	return c, nil
}

// Name identifies the shard in protocol traces.
func (c *ShardClient) Name() string { return "shard" + strconv.Itoa(c.shard) }

// Transport returns the commitproto.Transport view of this shard for the
// cluster coordinator's two-phase commit.
func (c *ShardClient) Transport() commitproto.Transport { return shardTransport{c} }

// Addr returns the dialed address.
func (c *ShardClient) Addr() string { return c.addr }

// Close flushes the outbox within one RPC timeout and severs the pool.
// The drain is stopped first, the due decisions are sent once more, and
// the pooled connections' owed replies are read, so their
// acknowledgements are still reported.  Close returns an error naming
// every transaction whose decision was not acknowledged; its ledger entry
// stays, as garbage.
func (c *ShardClient) Close() error {
	deadline := time.Now().Add(c.opts.Timeout)
	c.mu.Lock()
	select {
	case <-c.quit:
		c.mu.Unlock()
		return nil
	default:
		close(c.quit) // a drain ends after the resend it is making
	}
	c.mu.Unlock()
	c.resend(deadline, false)
	c.mu.Lock()
	c.closed = true
	idle, pinned := c.idle, c.pinned
	c.idle, c.pinned = nil, map[histories.TxID]*rpcConn{}
	c.mu.Unlock()
	for _, rc := range idle {
		rc.mu.Lock()
		c.run(rc, nil, rc.st.step(event{kind: evStart}), time.Until(deadline), false)
		_ = rc.nc.Close()
	}
	for _, rc := range pinned {
		_ = rc.nc.Close()
	}
	c.wg.Wait()
	c.mu.Lock()
	defer c.mu.Unlock()
	if txs := slices.Sorted(maps.Keys(c.out)); len(txs) > 0 {
		return fmt.Errorf("%w: %s: closed with the decisions of %d transactions undelivered: %s", ErrUnavailable, c.addr, len(txs), strings.Join(txs, " "))
	}
	return nil
}

// dial opens and handshakes a fresh connection, each step bounded by
// timeout.  Transport-level failures (refused dial, broken handshake) feed
// the circuit breaker; a completed handshake resets it.
func (c *ShardClient) dial(timeout time.Duration) (*rpcConn, error) {
	nc, err := net.DialTimeout("tcp", c.addr, timeout)
	if err != nil {
		c.bk.failure()
		return nil, fmt.Errorf("%w: %s: %v", ErrUnavailable, c.addr, err)
	}
	rc := &rpcConn{nc: nc, r: bufio.NewReaderSize(nc, 32<<10), w: bufio.NewWriterSize(nc, 32<<10)}
	resp, err := rc.roundTrip(&message{typ: msgHello, n: protoVersion}, timeout)
	if err != nil {
		_ = nc.Close()
		c.bk.failure()
		return nil, fmt.Errorf("%w: %s: handshake: %v", ErrUnavailable, c.addr, err)
	}
	if resp.typ != msgHelloResp || resp.n != protoVersion {
		_ = nc.Close()
		return nil, fmt.Errorf("netproto: %s: bad handshake response", c.addr)
	}
	if int(resp.ts) != c.shard {
		_ = nc.Close()
		return nil, fmt.Errorf("netproto: %s serves shard %d, dialed as shard %d", c.addr, resp.ts, c.shard)
	}
	if len(resp.ids) == 1 {
		if n, err := strconv.Atoi(resp.ids[0]); err == nil && n != c.shards {
			_ = nc.Close()
			return nil, fmt.Errorf("netproto: %s serves a %d-shard cluster, dialed as %d shards", c.addr, n, c.shards)
		}
	}
	if resp.flag == stateRecovering {
		if err := c.resolvePending(rc, timeout); err != nil {
			_ = nc.Close()
			if errors.Is(err, ErrUnavailable) {
				c.bk.failure()
			}
			return nil, err
		}
	}
	c.bk.success()
	return rc, nil
}

// resolvePending resolves a recovering shard's pending prepared branches —
// but only the ones this client may speak for.  A branch with a ledgered
// decision commits at its timestamp (delivering a decision is always safe:
// only the branch's own coordinator could have logged it).  A branch this
// client owns but has no decision for is presumed aborted — the owner's
// log is the authority, and no record there means abort.  A foreign branch
// is left strictly alone: its coordinator may have logged a commit this
// client cannot see, and aborting it would tear that transaction across
// shards.  The shard stays recovering until every branch's owner resolves
// it (classical 2PC blocking), so this handshake may leave the shard still
// refusing new work — correct, if inconvenient, and the owner's next dial
// or its outbox's drain clears it.
func (c *ShardClient) resolvePending(rc *rpcConn, timeout time.Duration) error {
	resp, err := rc.roundTrip(&message{typ: msgPending}, timeout)
	if err != nil {
		return fmt.Errorf("%w: %s: pending query: %v", ErrUnavailable, c.addr, err)
	}
	if resp.typ != msgTxList {
		return fmt.Errorf("netproto: %s: bad pending response", c.addr)
	}
	for _, id := range resp.ids {
		var req *message
		ledgered := false
		if c.opts.DecisionFor != nil {
			if ts, ok := c.opts.DecisionFor(histories.TxID(id)); ok {
				req = &message{typ: msgDecide, tx: id, ts: uint64(ts)}
				ledgered = true
			}
		}
		if req == nil {
			if c.opts.Owns != nil && !c.opts.Owns(histories.TxID(id)) {
				continue // foreign branch: its coordinator's call, not ours
			}
			req = &message{typ: msgAbort, tx: id}
		}
		r, err := rc.roundTrip(req, timeout)
		if err != nil {
			return fmt.Errorf("%w: %s: resolving %s: %v", ErrUnavailable, c.addr, id, err)
		}
		if r.typ == msgErr {
			if ledgered {
				// The shard could not durably apply a decided commit (its
				// log may be failing).  The decision goes to the outbox,
				// whose drain keeps trying; the handshake proceeds so other
				// branches can still resolve.
				c.park(req)
				continue
			}
			return fmt.Errorf("netproto: %s: resolving %s: %s", c.addr, id, r.a)
		}
	}
	return nil
}

// do performs an action's I/O for req: arm a fresh deadline, write the
// frame, flush, read one reply, each if asked.  Any error poisons the
// connection (the stream may be desynchronized).
func (rc *rpcConn) do(a action, req *message, timeout time.Duration) (resp message, err error) {
	if a.arm {
		if err = rc.nc.SetDeadline(time.Now().Add(timeout)); err != nil {
			return message{}, err
		}
	}
	if a.write {
		if a.abort {
			req = &message{typ: msgAbort, tx: req.tx}
		}
		if rc.wbuf, err = writeMessage(rc.w, rc.wbuf, req); err != nil {
			return message{}, err
		}
	}
	if a.flush {
		if err = rc.w.Flush(); err != nil {
			return message{}, err
		}
	}
	if a.read {
		resp, rc.rbuf, err = readMessage(rc.r, rc.rbuf)
	}
	return resp, err
}

// roundTrip sends one request and reads its response on a connection that
// owes nothing: the handshake's.
func (rc *rpcConn) roundTrip(req *message, timeout time.Duration) (message, error) {
	return rc.do(action{arm: true, write: true, flush: true, read: true}, req, timeout)
}

// timeoutFor folds a context deadline into the default RPC timeout.
func (c *ShardClient) timeoutFor(ctx context.Context) time.Duration {
	t := c.opts.Timeout
	if ctx != nil {
		if dl, ok := ctx.Deadline(); ok {
			if d := time.Until(dl); d < t {
				t = d
			}
		}
	}
	if t <= 0 {
		t = time.Millisecond
	}
	return t
}

// checkout returns the connection for a request of tx: its pinned one, or
// a pooled or fresh one, pinned to tx unless tx is "".  A new connection
// needs the circuit breaker's leave — an open breaker fails fast with
// ErrShardDown — but a transaction that holds one keeps using it, so
// in-flight work finishes (or fails on its own merits) rather than being
// cut off by other transactions' failures.  Held registrations go first,
// unless req is one of their batches or a decision, whose transaction sent
// them ahead of its first request.  A pooled connection holding a buffered
// decision goes first, to carry it out.  A decision joins the outbox,
// awaiting its reply on the connection returned.  A lost transaction's calls,
// prepare and commit are refused; its commit or any other request ends
// the mark.
func (c *ShardClient) checkout(tx histories.TxID, req *message, decision bool, timeout time.Duration) (*rpcConn, error) {
	if req.typ != msgRegister && !decision {
		if err := c.sendHeld(); err != nil {
			return nil, err
		}
	}
	c.mu.Lock()
	if _, lost := c.lost[tx]; lost {
		if req.typ != msgCall && req.typ != msgPrepare {
			delete(c.lost, tx)
		}
		if failing(req.typ) {
			c.mu.Unlock()
			return nil, fmt.Errorf("%w: %s: %s lost its connection mid-transaction", ErrUnavailable, c.addr, tx)
		}
	}
	rc, ok := c.pinned[tx]
	if ok && decision {
		c.out[req.tx] = outEntry{typ: req.typ, ts: req.ts, on: &rc.st}
	}
	c.mu.Unlock()
	if ok {
		return rc, nil
	}
	if err := c.bk.allow(); err != nil {
		return nil, err
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, fmt.Errorf("%w: client closed", ErrUnavailable)
	}
	if n := len(c.idle); n > 0 {
		i := slices.IndexFunc(c.idle, func(rc *rpcConn) bool { return rc.st.buffered })
		if i < 0 {
			i = n - 1
		}
		rc = c.idle[i]
		c.idle = slices.Delete(c.idle, i, i+1)
	}
	c.mu.Unlock()
	if rc == nil {
		var err error
		if rc, err = c.dial(timeout); err != nil {
			return nil, err
		}
	}
	if tx == "" {
		return rc, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		_ = rc.nc.Close()
		return nil, fmt.Errorf("%w: client closed", ErrUnavailable)
	}
	c.pinned[tx] = rc
	rc.tx = tx
	if decision {
		c.out[req.tx] = outEntry{typ: req.typ, ts: req.ts, on: &rc.st}
	}
	return rc, nil
}

// start checks out tx's connection for req, locks it and steps req in; wb
// marks a request whose reply is owed: a write-behind call's, or a
// decision's; lazy, a commit decision that waits for the next frame.
func (c *ShardClient) start(tx histories.TxID, req *message, wb, lazy bool, timeout time.Duration) (*rpcConn, action) {
	rc, err := c.checkout(tx, req, wb && req.typ != msgCall, timeout)
	if err != nil {
		return nil, action{done: true, err: err}
	}
	rc.mu.Lock()
	return rc, rc.st.step(event{kind: evStart, typ: req.typ, wb: wb, lazy: lazy, pinned: rc.tx != "", tx: req.tx})
}

// request runs req for tx (any pooled connection when tx is "") to the end,
// bounded by timeout, and returns its response, or what failed it.
func (c *ShardClient) request(tx histories.TxID, req *message, timeout time.Duration) (message, error) {
	rc, a := c.start(tx, req, false, false, timeout)
	resp, a := c.run(rc, req, a, timeout, false)
	if a.err != nil {
		return message{}, a.err
	}
	return resp, nil
}

// run does what rc's actions for req say, each outcome stepped in, until
// the exchange is done — or, with half set, until only reading is left:
// the send half of a prepare or an abort decision.  It returns the last
// reply read, the response when the exchange is done, and unlocks rc.
func (c *ShardClient) run(rc *rpcConn, req *message, a action, timeout time.Duration, half bool) (message, action) {
	if rc != nil {
		defer rc.mu.Unlock()
	}
	var resp message
	for !a.done && !(half && a.read) {
		var err error
		switch resp, err = rc.do(a, req, timeout); {
		case err != nil:
			a = rc.st.step(event{kind: evBroken, err: fmt.Errorf("%w: %s: %v", ErrUnavailable, c.addr, err)})
		case a.read && resp.typ == msgErr:
			a = rc.st.step(event{kind: evRead, err: errOf(resp.flag, resp.a)})
		case a.read:
			a = rc.st.step(event{kind: evRead})
		default:
			a = rc.st.step(event{kind: evWrote})
		}
		if a.acked && c.opts.DecisionAcked != nil {
			c.opts.DecisionAcked(histories.TxID(rc.st.answered[len(rc.st.answered)-1].tx))
		}
	}
	if a.done && rc != nil {
		c.finish(rc, a)
	}
	return resp, a
}

// finish ends an exchange: the breaker is told, the outbox settles the
// decisions' replies the exchange read, and the connection is kept,
// unpinned to the pool, or closed, the decisions it owes falling due and
// its transaction, unless the exchange ended it, lost.  A
// connection that owes decisions' replies goes back even to a full pool:
// its next user reads them, and if none comes, the sweep does.
func (c *ShardClient) finish(rc *rpcConn, a action) {
	if a.observe {
		c.bk.observe(a.ok)
	}
	if a.place == keep {
		if len(rc.st.answered) > 0 {
			c.mu.Lock()
			if c.out.settle(&rc.st, false) {
				c.wakeLocked()
			}
			c.mu.Unlock()
		}
		return
	}
	owed := len(rc.st.owed) > 0
	c.mu.Lock()
	if rc.tx != "" {
		if a.place == drop && !ends(rc.st.typ, a.err) {
			c.lost[rc.tx] = struct{}{}
		}
		delete(c.pinned, rc.tx)
		delete(c.parts, rc.tx)
		rc.tx = ""
	}
	pooled := a.place == pool && !c.closed && (len(c.idle) < 8 || owed)
	if c.out.settle(&rc.st, !pooled) {
		c.wakeLocked()
	}
	if pooled {
		c.idle = append(c.idle, rc)
		if owed {
			if rc.sweep == nil {
				rc.sweep = time.AfterFunc(flushLag, func() { c.sweepIdle(rc) })
			} else {
				rc.sweep.Reset(flushLag)
			}
		}
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	_ = rc.nc.Close()
}

// sweepIdle flushes a buffered decision and reads the replies owed by a
// connection that has idled in the pool: each acknowledgement is reported,
// and a decision whose reply is an error, or never comes, falls due.  A
// connection checked out meanwhile is left to its user, who reads the
// replies, but a decision still buffered behind a write-behind call is
// flushed.
func (c *ShardClient) sweepIdle(rc *rpcConn) {
	rc.mu.Lock()
	c.mu.Lock()
	pooled := slices.Contains(c.idle, rc)
	if c.closed || len(rc.st.owed) == 0 || !pooled && !rc.st.buffered {
		c.mu.Unlock()
		rc.mu.Unlock()
		return
	}
	c.idle = slices.DeleteFunc(c.idle, func(o *rpcConn) bool { return o == rc })
	c.wg.Add(1)
	c.mu.Unlock()
	defer c.wg.Done()
	c.run(rc, nil, rc.st.step(event{kind: evStart, pinned: !pooled}), c.opts.Timeout, false)
}

// --- core.RemoteShard ---

// Register implements core.RemoteShard.  Only a built-in type travels the
// wire; anything else fails here, before anything is sent.  While the
// client holds registrations the entry is queued and Register returns nil:
// the shard's verdict comes from SendHeldRegistrations.  Otherwise the
// entry is sent at once as a batch of one.
func (c *ShardClient) Register(name, typeName, scheme string) error {
	if _, ok := baseline.DescriptorFor(typeName); !ok {
		return errNotBuiltin(name, typeName)
	}
	e := CatalogEntry{Name: name, TypeName: typeName, Scheme: scheme}
	c.reg.mu.Lock()
	if c.reg.holding {
		c.reg.entries = append(c.reg.entries, e)
		c.reg.pending.Store(true)
		c.reg.mu.Unlock()
		return nil
	}
	c.reg.mu.Unlock()
	return c.register([]CatalogEntry{e})
}

// HoldRegistrations makes Register queue its entries instead of sending
// them, until SendHeldRegistrations.  Dial holds them while its setup
// runs, so a setup's registrations reach each shard as one message and
// cost the shard one catalog fsync.  Any other request to the shard sends
// the queue first, so a transaction begun inside setup finds its objects.
func (c *ShardClient) HoldRegistrations() {
	c.reg.mu.Lock()
	c.reg.holding = true
	c.reg.mu.Unlock()
}

// SendHeldRegistrations sends the queued registrations, stops holding, and
// returns the first error any held batch met — this one, or one an earlier
// request sent ahead of itself.
func (c *ShardClient) SendHeldRegistrations() error {
	c.reg.mu.Lock()
	defer c.reg.mu.Unlock()
	_ = c.sendHeldLocked() // its error is kept in c.reg.err
	c.reg.holding = false
	err := c.reg.err
	c.reg.err = nil
	return err
}

// sendHeld sends the queued registrations, if any, ahead of another
// request.
func (c *ShardClient) sendHeld() error {
	if !c.reg.pending.Load() {
		return nil
	}
	c.reg.mu.Lock()
	defer c.reg.mu.Unlock()
	return c.sendHeldLocked()
}

// sendHeldLocked sends the queue as one batch; c.reg.mu is held.
func (c *ShardClient) sendHeldLocked() error {
	if len(c.reg.entries) == 0 {
		return nil
	}
	err := c.register(c.reg.entries)
	c.reg.entries = nil
	c.reg.pending.Store(false)
	if err != nil && c.reg.err == nil {
		c.reg.err = err
	}
	return err
}

// registerChunkBytes bounds the entries of one register message, well
// inside maxPayload.  A variable so a test can make batches split.
var registerChunkBytes = maxPayload / 2

// register sends a registration batch, chunked to fit the frame limit, and
// returns the first error — the shard's refusal, which names the object,
// or the transport's — annotated with the objects its chunk was carrying.
func (c *ShardClient) register(entries []CatalogEntry) error {
	for len(entries) > 0 {
		n, size := 0, 0
		for n < len(entries) && (n == 0 || size < registerChunkBytes) {
			e := entries[n]
			size += len(e.Name) + len(e.TypeName) + len(e.Scheme) + 3*binary.MaxVarintLen64
			n++
		}
		chunk := entries[:n]
		entries = entries[n:]
		if _, err := c.request("", &message{typ: msgRegister, ids: encodeRegistrations(chunk)}, c.opts.Timeout); err != nil {
			return fmt.Errorf("netproto: registering %q and %d more on %s: %w", chunk[0].Name, len(chunk)-1, c.addr, err)
		}
	}
	return nil
}

// SetScheme implements core.RemoteShard.
func (c *ShardClient) SetScheme(name, scheme string) error {
	_, err := c.request("", &message{typ: msgSetScheme, obj: name, a: scheme}, c.opts.Timeout)
	return err
}

// Call implements core.RemoteShard.
func (c *ShardClient) Call(ctx context.Context, tx histories.TxID, obj histories.ObjID, inv spec.Invocation) (string, error) {
	resp, err := c.request(tx, &message{typ: msgCall, tx: string(tx), obj: string(obj), a: inv.Name, b: inv.Arg}, c.timeoutFor(ctx))
	return resp.a, err
}

// WriteBehind implements core.RemoteShard: the call is buffered on the
// pinned connection and its reply owed.  With a full window it goes as a
// plain Call, which reads the owed replies; the buffer holds far more than
// maxOwed calls.
func (c *ShardClient) WriteBehind(ctx context.Context, tx histories.TxID, obj histories.ObjID, inv spec.Invocation) error {
	req := &message{typ: msgCall, tx: string(tx), obj: string(obj), a: inv.Name, b: inv.Arg}
	d := c.timeoutFor(ctx)
	rc, a := c.start(tx, req, true, false, d)
	_, a = c.run(rc, req, a, d, false)
	return a.err
}

// Commit implements core.RemoteShard: the single-shard fast path, after
// the owed call replies (an error among them aborts the branch and is
// returned), read in their own round trip bounded from now: a commit
// cannot be overruled.  The commit carries the largest decision timestamp
// sent to the shard, which its timestamp must exceed: a decision this
// client's caller has seen committed may not be applied there yet.  When
// the commit's round trip fails mid-flight it may or may not have landed;
// a status probe on a fresh connection settles it, and an unsettled fate
// is reported as ErrOutcomeUnknown rather than guessed.
func (c *ShardClient) Commit(ctx context.Context, tx histories.TxID) (histories.Timestamp, error) {
	req := &message{typ: msgCommit, tx: string(tx), ts: c.decided.Load()}
	d := c.timeoutFor(ctx)
	rc, a := c.start(tx, req, false, false, d)
	resp, a := c.run(rc, req, a, d, false)
	switch {
	case a.lost:
		return c.probeCommit(tx)
	case a.err != nil:
		return 0, a.err
	case resp.typ != msgTS:
		return 0, fmt.Errorf("netproto: %s: bad commit response", c.addr)
	}
	return histories.Timestamp(resp.ts), nil
}

// probeCommit asks the shard what became of a commit whose response was
// lost.
func (c *ShardClient) probeCommit(tx histories.TxID) (histories.Timestamp, error) {
	resp, err := c.request("", &message{typ: msgTxStatus, tx: string(tx)}, c.opts.Timeout)
	if err != nil || resp.typ != msgOutcome {
		return 0, fmt.Errorf("%w: commit of %s on %s: fate unprobeable", core.ErrOutcomeUnknown, tx, c.addr)
	}
	switch resp.flag {
	case outcomeCommitted:
		return histories.Timestamp(resp.ts), nil
	case outcomeAborted:
		return 0, fmt.Errorf("%w: commit of %s on %s aborted with the connection", core.ErrTimeout, tx, c.addr)
	default:
		return 0, fmt.Errorf("%w: commit of %s on %s still in flight", core.ErrOutcomeUnknown, tx, c.addr)
	}
}

// Abort implements core.RemoteShard (best-effort: a lost abort resolves
// server-side when the pinned connection closes).  The abort goes out
// behind any owed calls; their errors no longer matter.
func (c *ShardClient) Abort(ctx context.Context, tx histories.TxID) error {
	_, err := c.request(tx, &message{typ: msgAbort, tx: string(tx)}, c.timeoutFor(ctx))
	return err
}

// StampParticipants implements core.RemoteShard: the count rides the next
// Prepare for tx, which takes it out of the map.
func (c *ShardClient) StampParticipants(tx histories.TxID, n int) {
	c.mu.Lock()
	if !c.closed {
		c.parts[tx] = n
	}
	c.mu.Unlock()
}

// ReadBegin implements core.RemoteShard.
func (c *ShardClient) ReadBegin(ctx context.Context, tx histories.TxID) (histories.Timestamp, error) {
	resp, err := c.request(tx, &message{typ: msgReadBegin, tx: string(tx)}, c.timeoutFor(ctx))
	return histories.Timestamp(resp.ts), err
}

// ReadActivate implements core.RemoteShard.
func (c *ShardClient) ReadActivate(ctx context.Context, tx histories.TxID, ts histories.Timestamp) error {
	_, err := c.request(tx, &message{typ: msgReadActivate, tx: string(tx), ts: uint64(ts)}, c.timeoutFor(ctx))
	return err
}

// ReadCall implements core.RemoteShard.
func (c *ShardClient) ReadCall(ctx context.Context, tx histories.TxID, obj histories.ObjID, inv spec.Invocation) (string, error) {
	resp, err := c.request(tx, &message{typ: msgReadCall, tx: string(tx), obj: string(obj), a: inv.Name, b: inv.Arg}, c.timeoutFor(ctx))
	return resp.a, err
}

// ReadComplete implements core.RemoteShard.
func (c *ShardClient) ReadComplete(ctx context.Context, tx histories.TxID, commit bool) error {
	var flag byte
	if commit {
		flag = 1
	}
	_, err := c.request(tx, &message{typ: msgReadComplete, tx: string(tx), flag: flag}, c.timeoutFor(ctx))
	return err
}

// Stats implements core.RemoteShard.
func (c *ShardClient) Stats(ctx context.Context) (core.StatsSnapshot, error) {
	resp, err := c.request("", &message{typ: msgStats}, c.timeoutFor(ctx))
	if err != nil {
		return core.StatsSnapshot{}, err
	}
	var snap core.StatsSnapshot
	if err := json.Unmarshal(resp.blob, &snap); err != nil {
		return core.StatsSnapshot{}, err
	}
	return snap, nil
}

// --- commitproto.Transport ---

// shardTransport adapts a ShardClient to commitproto.Transport.
type shardTransport struct{ c *ShardClient }

var (
	_ core.RemoteShard      = (*ShardClient)(nil)
	_ commitproto.Transport = shardTransport{}
)

// Name implements commitproto.Transport.
func (t shardTransport) Name() string { return t.c.Name() }

// The three protocol messages are each one exchange in two halves: the
// Start method puts the request on the wire, and the completion it returns
// reads the reply; the exchange's last step does the bookkeeping —
// breaker, unpinning, the outbox.

// bound is the smaller of d and a positive timeout.
func bound(d, timeout time.Duration) time.Duration {
	if timeout > 0 && timeout < d {
		return timeout
	}
	return d
}

// StartPrepare implements commitproto.Transport: send the prepare request
// on the transaction's pinned connection, behind its owed calls; the
// completion reads their replies, then the vote.  An owed error is a no
// vote, even over a yes: the abort decision reaches the prepared branch.
// A transport failure in either half is "unreachable" (ok=false) — the
// coordinator treats it as a veto, and the shard's branch either died with
// the connection (unprepared) or resolves by presumed abort.  The
// participant count StampParticipants left is consumed here, whether or
// not the request can be sent.
func (t shardTransport) StartPrepare(ctx context.Context, tx histories.TxID, timeout time.Duration) func() (histories.Timestamp, bool, bool) {
	c := t.c
	c.mu.Lock()
	n := c.parts[tx]
	delete(c.parts, tx)
	c.mu.Unlock()
	d := bound(c.timeoutFor(ctx), timeout)
	req := &message{typ: msgPrepare, tx: string(tx), n: uint64(n)}
	rc, a := c.start(tx, req, false, false, d)
	_, half := c.run(rc, req, a, d, true)
	return func() (histories.Timestamp, bool, bool) {
		a := half
		var resp message
		if !a.done {
			rc.mu.Lock()
			resp, a = c.run(rc, nil, a, d, false)
		}
		switch {
		case !a.ok:
			return 0, false, false
		case a.err != nil || resp.typ != msgVote || resp.flag != 1:
			return 0, false, true
		}
		return histories.Timestamp(resp.ts), true, true
	}
}

// StartCommit implements commitproto.Transport: buffer the commit decision
// for its connection's next frame or the sweep.  It stays in the outbox
// until acknowledged — the decision is logged and irreversible, and a
// prepared branch holds its locks until it learns its fate.
func (t shardTransport) StartCommit(ctx context.Context, tx histories.TxID, ts histories.Timestamp, timeout time.Duration) func() bool {
	return t.c.startDecision(tx, msgDecide, ts, timeout, true)
}

// StartAbort implements commitproto.Transport: send the abort decision,
// which stays in the outbox until acknowledged too (a disowned prepared
// branch would otherwise hold its locks until the shard restarts).
func (t shardTransport) StartAbort(ctx context.Context, tx histories.TxID, timeout time.Duration) func() bool {
	return t.c.startDecision(tx, msgAbort, 0, timeout, false)
}

// undelivered and sent are the completions of a decision that could not be
// sent and of a sent commit decision whose reply is owed.
func undelivered() bool { return false }
func sent() bool        { return true }

// startDecision puts a decision (msgDecide at ts, or msgAbort) in the
// outbox and sends it on the transaction's pinned connection, or any
// connection.  An abort's completion reads the acknowledgement.  A commit
// decision's reply is owed instead, and the connection goes back at once:
// the decision is settled, and its reply is read by whoever settles the
// connection next, which flushes it first when lazy left it buffered.  One
// that cannot be sent falls due.
func (c *ShardClient) startDecision(tx histories.TxID, typ byte, ts histories.Timestamp, timeout time.Duration, lazy bool) func() bool {
	req := &message{typ: typ, tx: string(tx), ts: uint64(ts)}
	if typ == msgDecide {
		for old := c.decided.Load(); uint64(ts) > old && !c.decided.CompareAndSwap(old, uint64(ts)); old = c.decided.Load() {
		}
	}
	d := bound(c.opts.Timeout, timeout)
	rc, a := c.start(tx, req, true, lazy, d)
	if rc == nil {
		c.park(req)
		return undelivered
	}
	if _, a = c.run(rc, req, a, d, true); a.done {
		if !a.ok {
			return undelivered
		}
		return sent
	}
	pending := a
	return func() bool {
		rc.mu.Lock()
		_, a := c.run(rc, nil, pending, d, false)
		return a.err == nil
	}
}

// park makes req's decision due.
func (c *ShardClient) park(req *message) {
	c.mu.Lock()
	c.out[req.tx] = outEntry{typ: req.typ, ts: req.ts}
	c.wakeLocked()
	c.mu.Unlock()
}

// wakeLocked starts the drain unless it runs or the client is closing;
// c.mu is held.
func (c *ShardClient) wakeLocked() {
	if c.draining {
		return
	}
	select {
	case <-c.quit: // Close resends what is due
	default:
		c.draining = true
		c.wg.Add(1)
		go c.drain()
	}
}

// drain is the client's one background sender: it resends the due
// decisions, paced by the breaker's backoff, until none is due or the
// client closes.  A shard that no longer knows a branch (ErrTxDone) takes
// its decision out of the outbox without an acknowledgement.
func (c *ShardClient) drain() {
	defer c.wg.Done()
	for attempt := 0; backoff.Wait(c.quit, c.bk.policy.Delay(attempt)); attempt++ {
		if !c.resend(time.Now().Add(c.opts.Timeout), true) {
			return
		}
	}
}

// resend sends every due decision again, until the deadline, and reports
// whether any was due; when none is, the drain's resend stops it.  One the
// deadline leaves unsent falls due again.
func (c *ShardClient) resend(deadline time.Time, drain bool) bool {
	c.mu.Lock()
	var due []message
	for tx, e := range c.out {
		if e.on == nil {
			e.on = taken
			c.out[tx] = e
			due = append(due, message{typ: e.typ, tx: tx, ts: e.ts})
		}
	}
	if len(due) == 0 && drain {
		c.draining = false
	}
	c.mu.Unlock()
	for i := range due {
		if t := time.Until(deadline); t > 0 {
			c.startDecision(histories.TxID(due[i].tx), due[i].typ, histories.Timestamp(due[i].ts), t, false)()
		} else {
			c.park(&due[i])
		}
	}
	return len(due) > 0
}

// Ping checks liveness over any pooled connection.
func (c *ShardClient) Ping(ctx context.Context) error {
	_, err := c.request("", &message{typ: msgPing}, c.timeoutFor(ctx))
	return err
}
