package main

import (
	"context"
	"fmt"
	"time"

	"hybridcc"
	"hybridcc/internal/adt"
	"hybridcc/internal/baseline"
	"hybridcc/internal/ccpolicy"
	"hybridcc/internal/commitproto"
	"hybridcc/internal/depend"
	"hybridcc/internal/histories"
	"hybridcc/internal/netproto"
	"hybridcc/internal/spec"
	"hybridcc/internal/tstamp"
	"hybridcc/internal/wal"
)

// A probe is a short micro-run that calls one layer's public API directly,
// from outside.  Probes report what a layer costs on its own, the floor
// under the end-to-end numbers.

// nsPerOp times fn in batches for about d and returns the median batch's
// nanoseconds per call: a mean inside the batch (one clock read pair would
// dominate a 20 ns call), a median across batches (a preempted batch does
// not move it).
func nsPerOp(d time.Duration, batch int, fn func()) float64 {
	var per []float64
	for start := time.Now(); time.Since(start) < d || len(per) < 5; {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		per = append(per, float64(time.Since(t0))/float64(batch))
	}
	return median(per)
}

// timeEach calls fn n times and returns the histogram of its durations.
func timeEach(n int, fn func() error) (*hist, error) {
	h := new(hist)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return nil, err
		}
		h.record(int64(time.Since(t0)))
	}
	return h, nil
}

// probeDur is the budget of one timed micro-probe.
const probeDur = 100 * time.Millisecond

// The derivation depths the facade uses for a Spec with a finite universe
// (hybridcc's deriveH1Len and deriveH2Len).
const (
	deriveH1Len = 3
	deriveH2Len = 2
)

// noopParticipant votes yes and does nothing: what is left of a commit
// round is commitproto itself.
type noopParticipant struct{}

func (noopParticipant) Prepare(histories.TxID) (histories.Timestamp, bool) { return 0, true }
func (noopParticipant) Commit(histories.TxID, histories.Timestamp)         {}
func (noopParticipant) Abort(histories.TxID)                               {}

// probeLayers runs the probes that need no system under test: facade,
// depend, ccpolicy, tstamp and commitproto.
func probeLayers(m metrics) error {
	sys := hybridcc.NewSystem()
	empty := func(*hybridcc.Tx) error { return nil }
	var err error
	m.set("facade.empty_tx_ns", nsPerOp(probeDur, 1000, func() {
		if e := sys.Atomically(empty); e != nil {
			err = e
		}
	}))
	if err != nil {
		return fmt.Errorf("facade probe: %w", err)
	}

	// Derive the hybrid conflict relation of Account from its serial
	// specification over the universe registration seeds tables with, and
	// compile it: what registering one object of a derived type costs.
	universe := baseline.UniverseFor("Account")
	var table *depend.CompiledTable
	var compileMs []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		conflict := depend.DeriveHybrid(adt.NewAccount(), universe, deriveH1Len, deriveH2Len)
		table = depend.Compile(conflict, universe, 0)
		compileMs = append(compileMs, float64(time.Since(t0))/1e6)
	}
	m.set("depend.compile_ms", median(compileMs))
	m.set("depend.classes", float64(table.Len()))
	invs := adt.AccountInvocations([]int64{1, 2, 3}, []int64{2})
	i := 0
	m.set("depend.blockmask_ns", nsPerOp(probeDur, 1000, func() {
		table.BlockMask(invs[i%len(invs)])
		i++
	}))

	// Conflicting class pairs of the Account policies: exact counts, the
	// tripwire that explains a shift in core.waits_per_call.
	set := ccpolicy.NewSet()
	for _, scheme := range baseline.Schemes {
		p := set.Add(scheme, baseline.ConflictFor(scheme, "Account"), universe)
		m.set("ccpolicy.conflict_pairs."+scheme, float64(conflictPairs(p.Table, universe)))
	}

	src := tstamp.NewSource()
	m.set("tstamp.next_ns", nsPerOp(probeDur, 1000, func() { src.Next(0) }))

	coord := commitproto.NewCoordinator(tstamp.NewSource(), time.Second)
	trs := []commitproto.Transport{
		commitproto.NewDirect("a", noopParticipant{}),
		commitproto.NewDirect("b", noopParticipant{}),
	}
	ctx := context.Background()
	rounds, err := timeEach(20000, func() error {
		d, _, err := coord.RunTransports(ctx, "T1", trs)
		if err == nil && d != commitproto.Committed {
			err = fmt.Errorf("round decided %v", d)
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("commitproto probe: %w", err)
	}
	p50, _ := rounds.quantile(0.5)
	m.set("commitproto.round_p50_us", us(p50))
	return nil
}

// conflictPairs counts the unordered pairs of universe operations
// (including an operation with itself) that the table makes conflict in
// either orientation.
func conflictPairs(t *depend.CompiledTable, universe []spec.Op) int {
	n := 0
	for i, a := range universe {
		for _, b := range universe[i:] {
			if t.Conflicts(a, b) || t.Conflicts(b, a) {
				n++
			}
		}
	}
	return n
}

// probeWAL measures the log on this host's device with records the size
// disk-commit writes: a buffered append, an append + fsync, and a batch of
// eight records under one fsync.  It is the device floor of this sandbox,
// not a property of any device a user runs on.
func probeWAL(e *env, m metrics) error {
	dir, err := e.ps.tempDir(e.outDir, "walprobe-")
	if err != nil {
		return err
	}
	defer e.ps.removeDir(dir)
	log, _, err := wal.Open(dir, wal.Options{Sync: true, SegmentSize: diskSegmentBytes})
	if err != nil {
		return err
	}
	defer log.Close()
	n := int64(0)
	record := func() wal.Record {
		n++
		return wal.Record{Kind: wal.KindCommit, Tx: fmt.Sprintf("T%d", n), TS: n, Objs: []wal.ObjOps{
			{Obj: "acct-0001", Ops: []wal.Op{{Name: "Debit", Arg: "1", Res: "Ok"}}},
			{Obj: "acct-0002", Ops: []wal.Op{{Name: "Credit", Arg: "1", Res: "Ok"}}},
		}}
	}
	m.set("wal.append_ns", nsPerOp(probeDur, 1000, func() {
		if e := log.Append(record()); e != nil {
			err = e
		}
	}))
	if err != nil {
		return fmt.Errorf("wal append probe: %w", err)
	}
	syncs, err := timeEach(1500, func() error { return log.AppendSync(record()) })
	if err != nil {
		return fmt.Errorf("wal fsync probe: %w", err)
	}
	p50, _ := syncs.quantile(0.5)
	p99, _ := syncs.quantile(0.99)
	m.set("wal.fsync_p50_us", us(p50))
	m.set("wal.fsync_p99_us", us(p99))
	batch := make([]wal.Record, 8)
	batches, err := timeEach(300, func() error {
		for i := range batch {
			batch[i] = record()
		}
		return log.AppendBatchSync(batch)
	})
	if err != nil {
		return fmt.Errorf("wal batch probe: %w", err)
	}
	p50, _ = batches.quantile(0.5)
	m.set("wal.batch8_sync_us", us(p50))
	return nil
}

// probeGroup runs disk-commit's plan with WithGroupCommit for d: what
// throughput and fsyncs per commit would be if solo commit became a batch.
func probeGroup(e *env, d time.Duration, m metrics) error {
	w, _ := workloadByName("disk-commit")
	p, err := runPass(e, passSpec{w: w, opts: sutOpts{group: true}, measure: d, warm: d / 10, setups: 1})
	if err != nil {
		return fmt.Errorf("group-commit probe: %w", err)
	}
	m.set("wal.group_tx_per_s", ratio(float64(p.committed), p.elapsed.Seconds()))
	m.set("wal.group_fsyncs_per_commit", ratio(float64(p.core.LogFsyncs), float64(p.core.Committed)))
	m.set("core.group_batch_size", ratio(float64(p.core.GroupBatchTxs), float64(p.core.GroupBatches)))
	return nil
}

// probeCluster runs the wire workloads' plans on an in-process
// NewCluster(2): the cost of sharding and two-phase commit with no wire,
// the in-process rung of the wire budget.
func probeCluster(e *env, d time.Duration, m metrics) error {
	for _, name := range []string{"wire-single", "wire-cross"} {
		w, _ := workloadByName(name)
		p, err := runPass(e, passSpec{w: w, opts: sutOpts{traced: true, inproc: true}, measure: d, setups: 1})
		if err != nil {
			return fmt.Errorf("in-process cluster probe: %w", err)
		}
		commit := us(p.trace.p(spanCommit, 0.5))
		if name == "wire-single" {
			m.set("cluster.single_commit_p50_us", commit)
			m.set("cluster.fastpath_share", ratio(float64(p.cluster.FastPathCommits),
				float64(p.cluster.FastPathCommits+p.cluster.CrossShardCommits)))
		} else {
			m.set("cluster.cross_commit_p50_us", commit)
			m.set("cluster.protocol_aborts", float64(p.cluster.ProtocolAborts))
		}
	}
	return nil
}

// ping times netproto's Ping against a running shard, dialed directly (not
// through the counting proxy): the floor of every wire latency.
func (p *pass) ping(s *sut) error {
	sc, err := netproto.DialShard(s.procs[0].addr, 0, wireShards, netproto.ClientOptions{Timeout: 5 * time.Second})
	if err != nil {
		return fmt.Errorf("ping probe: %w", err)
	}
	defer sc.Close()
	ctx := context.Background()
	h, err := timeEach(2000, func() error { return sc.Ping(ctx) })
	if err != nil {
		return fmt.Errorf("ping probe: %w", err)
	}
	p.pingP50, _ = h.quantile(0.5)
	p.pingP99, _ = h.quantile(0.99)
	return nil
}

// genNsPerTx measures the generator: plan generation plus the two clock
// reads around a no-op body — the part of every latency that is the
// harness.
func genNsPerTx(e *env, w workload) float64 {
	pl := newPlanner(w, e.seed, 0)
	var tx txPlan
	base := time.Now()
	var sink int64
	ns := nsPerOp(probeDur, 1000, func() {
		pl.next(&tx)
		t0 := time.Since(base)
		sink += int64(time.Since(base) - t0)
	})
	_ = sink
	return ns
}
