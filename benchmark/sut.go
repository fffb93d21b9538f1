package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"hybridcc"
	"hybridcc/internal/backoff"
	"hybridcc/internal/core"
)

// env is what every pass of the benchmark shares.
type env struct {
	outDir  string // scratch: WAL directories, shard directories, trace files
	shardd  string // path of the hybrid-shardd binary
	clients int
	setups  int // times an untraced run sets its system up: setups, but once in the smoke test
	seed    uint64
	ps      *procSet
	log     io.Writer // progress and tables; the result line goes to stdout
}

// sutOpts selects a variant of a workload's system under test.
type sutOpts struct {
	traced bool // record spans around the calls into the engine
	record bool // attach a Recorder, for Verify(); wire workloads dial through counting proxies
	group  bool // disk: WithGroupCommit (the group-commit probe)
	inproc bool // wire: an in-process NewCluster(2), the rung with no wire
}

// Disk options of disk-commit: small segments and a low checkpoint trigger
// so the background checkpointer completes several cycles within a run and
// its foreground stalls land in the latency tail.
const (
	diskSegmentBytes    = 256 << 10
	diskCheckpointBytes = 1 << 20
)

// sut is one workload's system under test, registered, prefunded and ready.
type sut struct {
	e    *env
	w    workload
	opts sutOpts

	sys   *hybridcc.System  // sutMem, sutDisk
	cl    *hybridcc.Cluster // sutWire
	accts []*hybridcc.Account
	ctrs  []*hybridcc.Counter
	rec   *hybridcc.Recorder

	dir     string // sutDisk: the WAL directory
	procs   []*shardProc
	proxies []*countingProxy
}

// objectMaker is the part of System and Cluster that registers objects.
type objectMaker interface {
	NewAccount(name string, opts ...hybridcc.ObjectOption) (*hybridcc.Account, error)
	NewCounter(name string, opts ...hybridcc.ObjectOption) (*hybridcc.Counter, error)
}

// register creates the workload's objects on m, replacing any handles from
// an earlier registration (a reopened directory registers again).
func (s *sut) register(m objectMaker) error {
	s.accts, s.ctrs = s.accts[:0], s.ctrs[:0]
	for i := 0; i < s.w.keys; i++ {
		name := objectName(s.w, i)
		if s.w.shape == shapeCount {
			c, err := m.NewCounter(name)
			if err != nil {
				return err
			}
			s.ctrs = append(s.ctrs, c)
			continue
		}
		a, err := m.NewAccount(name)
		if err != nil {
			return err
		}
		s.accts = append(s.accts, a)
	}
	return nil
}

func (s *sut) options() []hybridcc.Option {
	var opts []hybridcc.Option
	if s.opts.record {
		s.rec = hybridcc.NewRecorder()
		opts = append(opts, hybridcc.WithRecorder(s.rec))
	}
	if s.opts.group {
		opts = append(opts, hybridcc.WithGroupCommit())
	}
	return opts
}

// setupSUT builds the workload's system: spawn shardd or open the WAL
// directory, dial, derive and compile the conflict tables (registration
// does that), register and prefund the objects.
func setupSUT(e *env, w workload, o sutOpts) (s *sut, err error) {
	s = &sut{e: e, w: w, opts: o}
	defer func() {
		if err != nil {
			s.close()
			s = nil
		}
	}()
	switch {
	case w.kind == sutMem:
		s.sys = hybridcc.NewSystem(s.options()...)
		err = s.register(s.sys)
	case w.kind == sutDisk:
		if s.dir, err = e.ps.tempDir(e.outDir, "wal-"); err != nil {
			return
		}
		err = s.openDisk()
	case o.inproc:
		if s.cl, err = hybridcc.NewCluster(wireShards, s.options()...); err != nil {
			return
		}
		err = s.register(s.cl)
	default:
		addrs := make([]string, wireShards)
		for i := range addrs {
			var p *shardProc
			if p, err = e.ps.spawnShard(e.shardd, e.outDir, i, wireShards); err != nil {
				return
			}
			s.procs = append(s.procs, p)
			addrs[i] = p.addr
			if o.record {
				var px *countingProxy
				if px, err = newCountingProxy(p.addr); err != nil {
					return
				}
				s.proxies = append(s.proxies, px)
				addrs[i] = px.addr()
			}
		}
		s.cl, err = hybridcc.Dial(addrs, func(c *hybridcc.Cluster) error { return s.register(c) }, s.options()...)
	}
	if err != nil {
		return
	}
	if w.shape == shapePayment {
		err = s.atomically(func(tx hybridcc.Txn) error {
			for _, a := range s.accts {
				if err := a.Credit(tx, prefund); err != nil {
					return err
				}
			}
			return nil
		})
	}
	return
}

// openDisk opens (or reopens) the WAL directory with disk-commit's options:
// fsync on every commit, solo commit unless the group probe asked otherwise.
func (s *sut) openDisk() error {
	opts := append(s.options(),
		hybridcc.WithSegmentSize(diskSegmentBytes),
		hybridcc.WithCheckpointBytes(diskCheckpointBytes))
	sys, err := hybridcc.Open(s.dir, func(sys *hybridcc.System) error { return s.register(sys) }, opts...)
	s.sys = sys
	return err
}

// atomically runs fn in one update transaction of whichever engine s has.
func (s *sut) atomically(fn func(hybridcc.Txn) error) error {
	if s.sys != nil {
		return s.sys.Atomically(func(tx *hybridcc.Tx) error { return fn(tx) })
	}
	return s.cl.Atomically(func(tx *hybridcc.DTx) error { return fn(tx) })
}

// coreStats returns the lock-manager counters: the System's, or the sum
// over the cluster's shards (fetched from the shardd processes when dialed).
func (s *sut) coreStats() core.StatsSnapshot {
	if s.sys != nil {
		return s.sys.Stats()
	}
	return s.cl.Stats().Total
}

func (s *sut) verify() error {
	if s.sys != nil {
		return s.sys.Verify()
	}
	return s.cl.Verify()
}

// pids lists the shard processes.
func (s *sut) pids() []int {
	var pids []int
	for _, p := range s.procs {
		pids = append(pids, p.cmd.Process.Pid)
	}
	return pids
}

// proxyCounts sums the counting proxies' counters.
func (s *sut) proxyCounts() proxyCounts {
	var c proxyCounts
	for _, p := range s.proxies {
		c = c.add(p.counts())
	}
	return c
}

// deadShard returns the log tail of a shard process that died, or "".
func (s *sut) deadShard() string {
	for i, p := range s.procs {
		if !p.alive() {
			return fmt.Sprintf("shard %d died; log tail:\n%s", i, p.tailLog())
		}
	}
	return ""
}

// close releases everything the system holds: engine, connections,
// proxies, shard processes and directories.
func (s *sut) close() {
	if s.sys != nil {
		_ = s.sys.Close()
		s.sys = nil
	}
	if s.cl != nil {
		_ = s.cl.Close()
		s.cl = nil
	}
	for _, p := range s.proxies {
		p.close()
	}
	for _, p := range s.procs {
		s.e.ps.stop(p)
	}
	s.proxies, s.procs = nil, nil
	if s.dir != "" {
		s.e.ps.removeDir(s.dir)
		s.dir = ""
	}
}

var errOverdraft = errors.New("debit refused with an overdraft on a prefunded account")

// The transaction bodies.  tick, when not nil, is called after every call
// into the engine: the traced runs end a span there.

// payment is the payment(f) shape: one debit that must succeed, then f
// credits of one unit.  The sum of all balances never changes.
func payment(tx hybridcc.Txn, accts []*hybridcc.Account, p *txPlan, tick func()) error {
	ok, err := accts[p.src].Debit(tx, p.amt)
	if err != nil {
		return err
	}
	if !ok {
		return errOverdraft
	}
	if tick != nil {
		tick()
	}
	for _, d := range p.dst[:p.n] {
		if err := accts[d].Credit(tx, 1); err != nil {
			return err
		}
		if tick != nil {
			tick()
		}
	}
	return nil
}

// increment is the update half of the count shape.
func increment(tx hybridcc.Txn, ctrs []*hybridcc.Counter, p *txPlan, tick func()) error {
	for _, k := range p.dst[:p.n] {
		if err := ctrs[k].Inc(tx, 1); err != nil {
			return err
		}
		if tick != nil {
			tick()
		}
	}
	return nil
}

// readAll is the snapshot half of the count shape.
func readAll(r hybridcc.ReadTxn, ctrs []*hybridcc.Counter, p *txPlan, tick func()) error {
	for _, k := range p.dst[:p.n] {
		if _, err := ctrs[k].ReadAt(r); err != nil {
			return err
		}
		if tick != nil {
			tick()
		}
	}
	return nil
}

// update runs the update transaction of c.tx's shape.
func (c *client) update(tx hybridcc.Txn, tick func()) error {
	if c.s.w.shape == shapeCount {
		return increment(tx, c.s.ctrs, &c.tx, tick)
	}
	return payment(tx, c.s.accts, &c.tx, tick)
}

// retryable mirrors the facade's retry rule (hybridcc.retryable), which the
// traced runs apply themselves because they call Begin and Commit directly.
func retryable(err error) bool {
	return errors.Is(err, hybridcc.ErrTimeout) || errors.Is(err, hybridcc.ErrDeadlock) ||
		errors.Is(err, hybridcc.ErrCommitAborted) || errors.Is(err, hybridcc.ErrShardUnavailable) ||
		errors.Is(err, hybridcc.ErrShardDown)
}

// The facade's contention retry policy (hybridcc.atomicallyLoop).
const maxAttempts = 16

var contention = backoff.Policy{Base: 100 * time.Microsecond, Cap: 6400 * time.Microsecond}

// txHandle is what the traced runs need of an update transaction; *Tx and
// *DTx both satisfy it.
type txHandle interface {
	hybridcc.Txn
	Commit() error
	Abort() error
}

func (s *sut) begin() txHandle {
	if s.sys != nil {
		return s.sys.Begin()
	}
	return s.cl.Begin()
}

// client is one closed-loop caller: it generates a transaction, runs it,
// waits for its commit, and records what it saw.
type client struct {
	id   int
	s    *sut
	plan *planner
	tx   txPlan

	run      func() error // one untraced transaction of c.tx, through Atomically / Snapshot
	attempts int64        // transaction bodies started; attempts − transactions = retries

	// What the client was told: the ledger the correctness checks compare
	// the engine's state with.
	delta   []int64 // payment: acknowledged net change per account
	updates int64   // count: acknowledged update transactions

	lat       hist // latency of the transactions committed in the measured part
	attempted int64
	failed    int64 // returned an error after retries, or exceeded latencyLimit
	firstErr  error

	// Traced runs only.  t is the end of the last span, in ns since base:
	// spans are back to back, the clock read that ends one starts the next.
	tr                 *clientTrace
	base               time.Time
	t                  int64
	tickCall, tickRead func()
}

func (s *sut) newClient(id int) *client {
	c := &client{id: id, s: s, plan: newPlanner(s.w, s.e.seed, id)}
	if s.w.shape == shapePayment {
		c.delta = make([]int64, s.w.keys)
	}
	if s.opts.traced {
		c.tr = newClientTrace(id)
		c.tickCall = func() { c.lap(spanCall) }
		c.tickRead = func() { c.lap(spanRead) }
	}
	// The closures are built once per client so that the measured loop
	// allocates nothing of its own.
	if s.sys != nil {
		update := func(tx *hybridcc.Tx) error { c.attempts++; return c.update(tx, nil) }
		read := func(r *hybridcc.ReadTx) error { c.attempts++; return readAll(r, s.ctrs, &c.tx, nil) }
		c.run = func() error {
			if !c.tx.read {
				return s.sys.Atomically(update)
			}
			// Snapshot does not retry; a reader outwaited by a writer's
			// commit window is retried here under the facade's policy.
			var err error
			for attempt := 0; attempt < maxAttempts; attempt++ {
				if err = s.sys.Snapshot(read); err == nil || !retryable(err) {
					return err
				}
				backoff.Sleep(context.Background(), contention.Delay(attempt))
			}
			return err
		}
	} else {
		update := func(tx *hybridcc.DTx) error { c.attempts++; return c.update(tx, nil) }
		c.run = func() error { return s.cl.Atomically(update) }
	}
	return c
}

// acknowledge books a committed transaction into the client's ledger.
func (c *client) acknowledge() {
	if c.delta == nil {
		if !c.tx.read {
			c.updates++
		}
		return
	}
	c.delta[c.tx.src] -= c.tx.amt
	for _, d := range c.tx.dst[:c.tx.n] {
		c.delta[d]++
	}
}

// lap ends a span of the given kind now and starts the next.
func (c *client) lap(kind spanKind) {
	c.t = c.tr.lap(kind, c.t, int64(time.Since(c.base)))
}

// runTraced runs c.tx with explicit Begin → calls → Commit under the
// facade's retry policy, recording a span around each call into the engine.
// The root span starts at c.t and ends at c.t on return.
func (c *client) runTraced() error {
	var err error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		c.attempts++
		if c.tx.read {
			r := c.s.sys.BeginReadOnly()
			c.lap(spanBegin)
			if err = readAll(r, c.s.ctrs, &c.tx, c.tickRead); err == nil {
				if err = r.Commit(); err == nil {
					c.lap(spanClose)
					return nil
				}
			}
			_ = r.Abort()
		} else {
			tx := c.s.begin()
			c.lap(spanBegin)
			if err = c.update(tx, c.tickCall); err == nil {
				if err = tx.Commit(); err == nil {
					c.lap(spanCommit)
					return nil
				}
			}
			_ = tx.Abort()
		}
		c.lap(spanAbort)
		if !retryable(err) {
			break
		}
		backoff.Sleep(context.Background(), contention.Delay(attempt))
		c.lap(spanBackoff)
	}
	return err
}

// check compares the engine's committed state with the clients' ledgers:
// every account equals its prefund plus the acknowledged payments (which
// implies that the sum of balances is conserved), or the counters sum to
// countOps × acknowledged updates.  Clients must have stopped.
func (s *sut) check(clients []*client) error {
	if s.w.shape == shapeCount {
		var updates, sum int64
		for _, c := range clients {
			updates += c.updates
		}
		err := s.sys.Snapshot(func(r *hybridcc.ReadTx) error {
			sum = 0
			for _, ctr := range s.ctrs {
				v, err := ctr.ReadAt(r)
				if err != nil {
					return err
				}
				sum += v
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("counter snapshot: %w", err)
		}
		if sum != countOps*updates {
			return fmt.Errorf("counters sum to %d, want %d (%d acknowledged updates × %d)", sum, countOps*updates, updates, countOps)
		}
		return nil
	}
	want := make([]int64, s.w.keys)
	var total int64
	for i := range want {
		want[i] = prefund
		for _, c := range clients {
			want[i] += c.delta[i]
		}
		total += want[i]
	}
	if total != prefund*int64(s.w.keys) {
		return fmt.Errorf("ledger broken: balances should sum to %d, ledger says %d", prefund*int64(s.w.keys), total)
	}
	if s.cl != nil && len(s.procs) > 0 {
		return s.checkByDebit(want)
	}
	for i, a := range s.accts {
		if got := a.CommittedBalance(); got != want[i] {
			return fmt.Errorf("%s: balance %d, ledger of acknowledged payments says %d", objectName(s.w, i), got, want[i])
		}
	}
	return nil
}

// checkByDebit proves every balance on a dialed cluster, whose accounts
// have no read operation on the wire: inside one transaction that is then
// aborted, a debit of exactly the expected balance must succeed and a
// further debit of one unit must be refused.
func (s *sut) checkByDebit(want []int64) error {
	tx := s.cl.Begin()
	defer func() { _ = tx.Abort() }()
	for i, a := range s.accts {
		ok, err := a.Debit(tx, want[i])
		if err != nil {
			return fmt.Errorf("%s: %w", objectName(s.w, i), err)
		}
		if !ok {
			return fmt.Errorf("%s: balance below the ledger's %d", objectName(s.w, i), want[i])
		}
		if ok, err = a.Debit(tx, 1); err != nil {
			return fmt.Errorf("%s: %w", objectName(s.w, i), err)
		}
		if ok {
			return fmt.Errorf("%s: balance above the ledger's %d", objectName(s.w, i), want[i])
		}
	}
	return nil
}
