package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"hybridcc"
	"hybridcc/internal/core"
)

const (
	// warmupTx is the number of transactions each client runs as the last
	// step of every set-up, so lazy work (class interning, pooled handles,
	// connection dialing) is paid before the clock starts and a change
	// that moves work there shows in setup_s.
	warmupTx = 500
	// A recorded pass runs recordedWarmupTx transactions per client as its
	// warm-up and then verifiedTx in all, and Verify() checks exactly that
	// history.  It is this short because the oracle builds every precedes
	// pair of an object's transactions, which is quadratic in them: 500
	// payment(7) transactions on 8 accounts cost it 0.3 s, 3000 cost 10 s.
	recordedWarmupTx = 100
	verifiedTx       = 300
)

// passSpec says how to run one workload once.
type passSpec struct {
	w       workload
	opts    sutOpts
	measure time.Duration // length of the measured part of the loop
	warm    time.Duration // discarded lead-in of the loop
	setups  int           // times to set up; all but the last are torn down at once
	limit   int64         // transactions per client after which the loop ends early; 0: none
	reopen  bool          // disk: checkpoint, close and reopen after the run, and check again
}

// pass is what one run of one workload produced.
type pass struct {
	spec    passSpec
	clients int
	base    time.Time     // time zero of the trace
	setupS  []float64     // duration of each set-up, seconds
	elapsed time.Duration // length of the measured part that was used

	lat       hist // every transaction committed in the measured part
	attempted int64
	committed int64 // in the measured part
	failed    int64
	retries   int64
	firstErr  error

	cpu       time.Duration // generator + shards over the measured part
	peakRSS   float64       // MiB, generator + shards
	core      core.StatsSnapshot
	cluster   hybridcc.ClusterStats
	mallocs   uint64
	allocated uint64 // bytes

	// Traced passes.
	trace       *traceSummary
	proxy       proxyCounts // over the loop
	proxyConns  int64       // connections the proxies accepted since set-up
	verifyMs    float64
	verifiedTxs int64 // transactions in the history Verify() checked

	// Wire passes.
	pingP50  float64 // ns, traced passes only
	pingP99  float64
	spawnMs  float64 // median over the shards
	shardCPU time.Duration
	shardRSS float64 // MiB, both shards

	// Disk passes.
	walBytes    int64 // record bytes appended during the loop
	ckpt        core.CheckpointStats
	ckptMs      float64 // one explicit Checkpoint after the run
	reopenMs    float64 // Open over the same directory
	replayed    int64   // transactions recovery replayed
	checkpoints int64   // background checkpoints completed during the loop
}

// runPass sets the workload up, runs the closed loop, and checks the
// outputs.  An error means the benchmark could not run or a correctness
// check failed.
func runPass(e *env, spec passSpec) (*pass, error) {
	p := &pass{spec: spec, clients: e.clients}
	fail := func(err error) (*pass, error) { return nil, fmt.Errorf("%s: %w", spec.w.name, err) }
	resetPeakRSS()
	s, clients, err := p.setUp(e)
	if err != nil {
		return fail(err)
	}
	defer s.close()

	pids := append([]int{os.Getpid()}, s.pids()...)
	before := takeCounters(s)
	p.cpu, p.elapsed, err = p.loop(clients, pids)
	if dead := s.deadShard(); dead != "" {
		return fail(errors.New(dead))
	}
	if err != nil {
		return fail(err)
	}
	p.account(before, takeCounters(s))
	if p.core.StatsErr != "" {
		return fail(fmt.Errorf("shard counters unavailable: %s", p.core.StatsErr))
	}
	for _, pid := range pids {
		rss, err := peakRSSMiB(pid)
		if err != nil {
			return fail(err)
		}
		p.peakRSS += rss
		if pid != os.Getpid() {
			p.shardRSS += rss
		}
	}
	if len(s.procs) > 0 && spec.opts.traced {
		if err := p.ping(s); err != nil {
			return fail(err)
		}
	}

	p.collect(clients)
	if p.firstErr != nil {
		fmt.Fprintf(e.log, "%s: first failed transaction: %v\n", spec.w.name, p.firstErr)
	}
	if err := p.checks(s, clients); err != nil {
		return fail(fmt.Errorf("correctness check failed: %w", err))
	}
	if spec.opts.record {
		if err := p.verify(s); err != nil {
			return fail(err)
		}
	}
	if spec.opts.traced {
		if err := p.finishTrace(e, s, clients); err != nil {
			return fail(err)
		}
	}
	if spec.reopen {
		if err := p.reopen(s, clients); err != nil {
			return fail(err)
		}
	}
	return p, nil
}

// setUp builds the system and its clients and warms them up, spec.setups
// times.  All but the last system are torn down at once; setup_s is the
// median of the durations.
func (p *pass) setUp(e *env) (s *sut, clients []*client, err error) {
	spec := p.spec
	for i := 0; i < spec.setups; i++ {
		if s != nil {
			s.close()
		}
		start := time.Now()
		if s, err = setupSUT(e, spec.w, spec.opts); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		clients = make([]*client, e.clients)
		for id := range clients {
			clients[id] = s.newClient(id)
		}
		if err = warmUp(clients, spec.warmupTx()); err != nil {
			s.close()
			return nil, nil, fmt.Errorf("warm-up: %w", err)
		}
		p.setupS = append(p.setupS, time.Since(start).Seconds())
	}
	if len(s.procs) > 0 {
		var ms []float64
		for _, proc := range s.procs {
			ms = append(ms, proc.spawnMs)
		}
		p.spawnMs = median(ms)
	}
	return s, clients, nil
}

// counters is a reading of every cumulative counter a pass differences
// around its loop.
type counters struct {
	core     core.StatsSnapshot
	cluster  hybridcc.ClusterStats
	ckpt     core.CheckpointStats
	walBytes int64 // log segments on disk + bytes truncation reclaimed
	proxy    proxyCounts
	shardCPU time.Duration
	mem      runtime.MemStats
}

func takeCounters(s *sut) counters {
	c := counters{core: s.coreStats(), proxy: s.proxyCounts()}
	if s.cl != nil {
		c.cluster = s.cl.Stats()
	}
	if s.dir != "" {
		c.ckpt = s.sys.CheckpointStats()
		c.walBytes = segmentBytes(s.dir) + c.ckpt.BytesReclaimed
	}
	c.shardCPU, _ = cpuOf(s.pids()) // a dead shard is reported by deadShard
	runtime.ReadMemStats(&c.mem)
	return c
}

// account books what the loop added to the counters.
func (p *pass) account(before, after counters) {
	p.core = subStats(after.core, before.core)
	p.cluster = hybridcc.ClusterStats{
		FastPathCommits:   after.cluster.FastPathCommits - before.cluster.FastPathCommits,
		CrossShardCommits: after.cluster.CrossShardCommits - before.cluster.CrossShardCommits,
		ProtocolAborts:    after.cluster.ProtocolAborts - before.cluster.ProtocolAborts,
	}
	p.ckpt = after.ckpt
	p.checkpoints = after.ckpt.Checkpoints - before.ckpt.Checkpoints
	p.walBytes = after.walBytes - before.walBytes
	p.proxy = after.proxy.sub(before.proxy)
	p.proxyConns = after.proxy.conns
	p.shardCPU = after.shardCPU - before.shardCPU
	p.mallocs = after.mem.Mallocs - before.mem.Mallocs
	p.allocated = after.mem.TotalAlloc - before.mem.TotalAlloc
}

// warmupTx is the number of transactions each client runs at the end of
// set-up.
func (spec passSpec) warmupTx() int {
	if spec.opts.record {
		return recordedWarmupTx
	}
	return warmupTx
}

// warmUp runs count transactions on every client, concurrently.
func warmUp(clients []*client, count int) error {
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < count; n++ {
				c.plan.next(&c.tx)
				if err := c.run(); err != nil {
					errs[i] = err
					return
				}
				c.acknowledge()
			}
			c.attempts = 0
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// loop runs the closed loop: every client generates a transaction, runs it
// and waits for its commit, until warm + measure has passed or, with
// limit > 0, until it has run limit transactions.  Only what commits in
// the measured part is booked.  It returns the CPU time pids used over the
// measured part and the length of that part.
func (p *pass) loop(clients []*client, pids []int) (cpu, elapsed time.Duration, err error) {
	warm, limit := int64(p.spec.warm), p.spec.limit
	total := warm + int64(p.spec.measure)
	if p.base.IsZero() {
		p.base = time.Now()
	}
	now := func() int64 { return int64(time.Since(p.base)) }
	for _, c := range clients {
		c.base = p.base
	}

	ready := make(chan struct{})
	var origin int64 // loop start, ns since p.base
	ends := make([]int64, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-ready
			t := now()
			for n := int64(0); t-origin < total && (limit == 0 || n < limit); n++ {
				var t0 int64
				var err error
				if c.tr == nil {
					c.plan.next(&c.tx)
					t0 = now()
					err = c.run()
					t = now()
				} else {
					c.tr.beginTx()
					c.plan.next(&c.tx)
					c.t = t
					c.lap(spanGen)
					t0 = c.t
					root := spanTx
					if c.tx.read {
						root = spanSnapshot
					}
					c.tr.openRoot(root, t0)
					err = c.runTraced()
					t = c.t
					c.tr.closeRoot(root, t0, t)
				}
				c.attempted++
				if err != nil {
					c.failed++
					if c.firstErr == nil {
						c.firstErr = err
					}
					continue
				}
				c.acknowledge()
				if t-t0 > latencyLimit {
					c.failed++
				}
				// A transaction that ends after the last instant of the
				// measured part is not booked: the client overran by it.
				if rel := t - origin; rel >= warm && rel < total {
					c.lat.record(t - t0)
				}
			}
			ends[i] = t - origin
		}()
	}

	origin = now()
	start := time.Now()
	close(ready)
	if limit == 0 {
		time.Sleep(time.Until(start.Add(p.spec.warm)))
	}
	cpu0, err0 := cpuOf(pids)
	if limit == 0 {
		time.Sleep(time.Until(start.Add(p.spec.warm + p.spec.measure)))
	} else {
		wg.Wait()
	}
	cpu1, err1 := cpuOf(pids)
	wg.Wait()
	if err = errors.Join(err0, err1); err != nil {
		return 0, 0, err
	}
	elapsed = p.spec.measure
	if limit > 0 {
		// A limited loop ends when its last client does.
		elapsed = 0
		for _, end := range ends {
			elapsed = max(elapsed, time.Duration(min(end, total))-p.spec.warm)
		}
	}
	return cpu1 - cpu0, elapsed, nil
}

// collect merges the clients' measurements into the pass.
func (p *pass) collect(clients []*client) {
	for _, c := range clients {
		p.attempted += c.attempted
		p.failed += c.failed
		p.retries += c.attempts - c.attempted
		p.lat.merge(&c.lat)
		if p.firstErr == nil {
			p.firstErr = c.firstErr
		}
	}
	p.committed = int64(p.lat.n)
}

// checks runs the correctness checks every pass ends with.
func (p *pass) checks(s *sut, clients []*client) error {
	if err := s.check(clients); err != nil {
		return err
	}
	if s.w.shape == shapePayment && p.core.Timeouts != 0 {
		return fmt.Errorf("%d lock-wait timeouts on a deadlock-free workload", p.core.Timeouts)
	}
	if s.cl != nil {
		fast, cross := p.cluster.FastPathCommits, p.cluster.CrossShardCommits
		switch {
		case s.w.place == placeSameShard && (cross != 0 || fast == 0):
			return fmt.Errorf("single-shard workload committed %d on the fast path and %d through two-phase commit", fast, cross)
		case s.w.place == placeOtherShard && (fast != 0 || cross == 0):
			return fmt.Errorf("cross-shard workload committed %d on the fast path and %d through two-phase commit", fast, cross)
		}
	}
	return nil
}

// verify runs the oracle over the recorded history, which is exactly this
// pass's: set-up, warm-up and the loop.
func (p *pass) verify(s *sut) error {
	start := time.Now()
	if err := s.verify(); err != nil {
		return fmt.Errorf("Verify() of the recorded history: %w", err)
	}
	p.verifyMs = float64(time.Since(start)) / 1e6
	p.verifiedTxs = int64(p.clients*recordedWarmupTx) + p.attempted
	return nil
}

// finishTrace summarizes the clients' spans and writes them out.
func (p *pass) finishTrace(e *env, s *sut, clients []*client) error {
	traces := make([]*clientTrace, len(clients))
	for i, c := range clients {
		traces[i] = c.tr
	}
	p.trace = summarize(traces)
	if p.spec.opts.record || p.spec.opts.inproc {
		return nil // the trace file is the dialed, unrecorded run's
	}
	return writeTrace(filepath.Join(e.outDir, "trace-"+s.w.name+".jsonl"), traces)
}

// reopen takes one explicit checkpoint, closes the system, opens the same
// directory again and checks every account against the ledger of
// acknowledged payments once more: the durability check.
func (p *pass) reopen(s *sut, clients []*client) error {
	start := time.Now()
	if err := s.sys.Checkpoint(); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	p.ckptMs = float64(time.Since(start)) / 1e6
	p.ckpt = s.sys.CheckpointStats()
	if err := s.sys.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	start = time.Now()
	if err := s.openDisk(); err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	p.reopenMs = float64(time.Since(start)) / 1e6
	p.replayed = s.sys.Stats().Recovered
	if err := s.check(clients); err != nil {
		return fmt.Errorf("after close and reopen: %w", err)
	}
	return nil
}

// resetPeakRSS returns freed memory to the kernel and resets the process's
// peak-RSS mark, so that a pass's peak_rss_mb is its own and not that of
// whatever the process ran before it.  Where the kernel offers no reset the
// mark simply stays.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// subStats returns the counters accumulated between two snapshots.
func subStats(a, b core.StatsSnapshot) core.StatsSnapshot {
	a.Begun -= b.Begun
	a.Committed -= b.Committed
	a.Aborted -= b.Aborted
	a.Calls -= b.Calls
	a.Waits -= b.Waits
	a.Timeouts -= b.Timeouts
	a.WaitTime -= b.WaitTime
	a.Wakeups -= b.Wakeups
	a.SpuriousWakeups -= b.SpuriousWakeups
	a.GroupBatches -= b.GroupBatches
	a.GroupBatchTxs -= b.GroupBatchTxs
	a.LogAppends -= b.LogAppends
	a.LogFsyncs -= b.LogFsyncs
	return a
}

// segmentBytes is the size of the log segments in a WAL directory;
// together with the bytes truncation reclaimed it gives the bytes appended.
func segmentBytes(dir string) int64 {
	var n int64
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	for _, seg := range segs {
		if fi, err := os.Stat(seg); err == nil {
			n += fi.Size()
		}
	}
	return n
}

// filesystemOf names the filesystem type holding dir, from /proc/mounts
// (the longest mount point that prefixes dir).
func filesystemOf(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	b, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, fs := "", "unknown"
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, fs = mp, f[2]
		}
	}
	return fs
}
