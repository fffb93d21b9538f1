package bench

import (
	crand "crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"hybridcc/internal/adt"
	"hybridcc/internal/baseline"
	"hybridcc/internal/cluster"
	"hybridcc/internal/core"
	"hybridcc/internal/netproto"
	"hybridcc/internal/tstamp"
)

// This file holds the sharded-engine throughput probe behind
// BENCH_cluster.json: a fixed worker pool drives one hot Account per shard
// with a configurable fraction of cross-shard transactions, so one sweep
// shows both scale levers at once — the single-shard fast path spreading a
// contended workload over independent lock managers, and the price of the
// two-phase commit rounds cross-shard transactions pay ("the 2PC tax").
//
// The per-transaction work is a successful debit (prefunded account):
// successful debits CONFLICT under Table V, so on one shard the workers
// serialize behind each other's locks, and every added shard divides the
// hot set — the contended regime where sharding pays even on one CPU.  A
// trailing run of credits (which never conflict) keeps the per-transaction
// call count at OpsPerTx.

// ClusterBenchConfig configures one probe run.
type ClusterBenchConfig struct {
	// Shards is the cluster size.
	Shards int
	// Workers is the number of concurrent client goroutines — fixed
	// across shard counts so the sweep isolates the sharding effect.
	Workers int
	// OpsPerTx is the number of credits a single-shard transaction
	// executes.  A cross-shard transaction executes OpsPerTx credits
	// split across the two touched shards.
	OpsPerTx int
	// CrossPct is the percentage (0–100) of transactions that touch two
	// distinct shards and therefore commit through 2PC.  With one shard
	// every transaction is single-shard regardless.
	CrossPct int
	// Hold keeps locks held for this long before commit, modelling
	// transaction latency exactly as workload.Config.Hold does.  It is
	// what turns the conflicting debits into lost concurrency: with one
	// shard the workers serialize behind one hot lock for Hold each,
	// while every added shard lets another holder sleep in parallel.
	Hold time.Duration
	// Duration is the measurement window.
	Duration time.Duration
	// Transport selects the commit transport: "direct" (or empty,
	// in-process calls) or "tcp" (every branch operation and protocol
	// message over loopback TCP through internal/netproto — the
	// multi-process cost model with the process boundary factored out).
	Transport string
	// Addrs lists running shard servers (addrs[i] serves shard i) for
	// Transport "tcp".  Empty starts in-process loopback servers for the
	// run — the no-setup default; point it at real hybrid-shardd
	// processes to include the process boundary.
	Addrs []string
	// GroupCommit enables each shard's commit batcher.
	GroupCommit bool
}

// ClusterBenchResult reports one probe run.
type ClusterBenchResult struct {
	Shards            int     `json:"shards"`
	CrossPct          int     `json:"cross_pct"`
	Transport         string  `json:"transport"`
	GroupCommit       bool    `json:"group_commit,omitempty"`
	Committed         int64   `json:"committed"`
	FastPathCommits   int64   `json:"fastpath_commits"`
	CrossShardCommits int64   `json:"cross_shard_commits"`
	Retries           int64   `json:"retries"`
	TxPerSec          float64 `json:"tx_per_sec"`
	// GroupBatches/GroupBatchTxs sum the shard batchers' coalescing
	// counters (zero unless GroupCommit).
	GroupBatches  int64 `json:"group_batches,omitempty"`
	GroupBatchTxs int64 `json:"group_batch_txs,omitempty"`
}

// startLoopbackShards serves n volatile shard systems over loopback TCP
// for a self-contained "tcp" transport run, returning their addresses in
// shard order and a stop function.
func startLoopbackShards(n int, lockWait time.Duration) ([]string, func(), error) {
	addrs := make([]string, n)
	srvs := make([]*netproto.Server, 0, n)
	stop := func() {
		for _, s := range srvs {
			s.Shutdown(time.Second)
		}
	}
	for i := 0; i < n; i++ {
		sys := core.NewSystem(core.Options{
			Clock:              tstamp.NewNodeClock(i, n+1),
			ExternalTimestamps: true,
			LockWait:           lockWait,
			DeadlockDetection:  true,
		})
		srv, err := netproto.NewServer(sys, i, n, netproto.ServerOptions{})
		if err != nil {
			stop()
			return nil, nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			stop()
			return nil, nil, err
		}
		go func() { _ = srv.Serve(ln) }()
		srvs = append(srvs, srv)
		addrs[i] = ln.Addr().String()
	}
	return addrs, stop, nil
}

// ClusterThroughput runs the probe: Workers goroutines loop transactions
// against a cluster with one hot Account per shard, committing either on
// one shard (fast path) or across two (2PC) according to CrossPct.
func ClusterThroughput(cfg ClusterBenchConfig) (ClusterBenchResult, error) {
	if cfg.Shards < 1 || cfg.Workers < 1 || cfg.OpsPerTx < 1 {
		return ClusterBenchResult{}, fmt.Errorf("bench: invalid cluster config %+v", cfg)
	}
	if cfg.CrossPct < 0 || cfg.CrossPct > 100 {
		return ClusterBenchResult{}, fmt.Errorf("bench: cross_pct %d out of range", cfg.CrossPct)
	}
	transport := cfg.Transport
	if transport == "" {
		transport = "direct"
	}
	lockWait := 25 * time.Millisecond
	if w := time.Duration(cfg.Workers) * cfg.Hold * 4; w > lockWait {
		// Queueing behind worker-held locks must time out rarely, or the
		// probe measures retry churn instead of lock throughput.
		lockWait = w
	}
	var cl *cluster.Cluster
	var stopShards func()
	switch transport {
	case "direct":
		var err error
		cl, err = cluster.New(cluster.Options{
			Shards:      cfg.Shards,
			LockWait:    lockWait,
			GroupCommit: cfg.GroupCommit,
		})
		if err != nil {
			return ClusterBenchResult{}, err
		}
	case "tcp":
		if cfg.GroupCommit {
			return ClusterBenchResult{}, fmt.Errorf("bench: group commit is a shard-server flag, not a tcp client option")
		}
		addrs := cfg.Addrs
		if len(addrs) == 0 {
			var err error
			addrs, stopShards, err = startLoopbackShards(cfg.Shards, lockWait)
			if err != nil {
				return ClusterBenchResult{}, err
			}
		} else if len(addrs) != cfg.Shards {
			return ClusterBenchResult{}, fmt.Errorf("bench: %d addrs for %d shards", len(addrs), cfg.Shards)
		}
		conns := make([]cluster.RemoteConn, cfg.Shards)
		for i, addr := range addrs {
			sc, err := netproto.DialShard(addr, i, cfg.Shards, netproto.ClientOptions{Timeout: 5 * time.Second})
			if err != nil {
				for _, prev := range conns[:i] {
					if prev != nil {
						_ = prev.Close()
					}
				}
				if stopShards != nil {
					stopShards()
				}
				return ClusterBenchResult{}, fmt.Errorf("bench: dial shard %d: %w", i, err)
			}
			conns[i] = sc
		}
		// Shard servers key branches and remembered outcomes by transaction
		// identifier, so every client run against the same servers (a later
		// sweep, a rerun) must namespace its IDs or they collide with
		// outcomes the shards still remember.
		var nonce [4]byte
		if _, err := crand.Read(nonce[:]); err != nil {
			if stopShards != nil {
				stopShards()
			}
			return ClusterBenchResult{}, fmt.Errorf("bench: tx-id nonce: %w", err)
		}
		var err error
		cl, err = cluster.NewRemote(conns, cluster.RemoteOptions{
			CommitTimeout: 5 * time.Second,
			IDPrefix:      hex.EncodeToString(nonce[:]) + "-",
		})
		if err != nil {
			if stopShards != nil {
				stopShards()
			}
			return ClusterBenchResult{}, err
		}
	default:
		return ClusterBenchResult{}, fmt.Errorf("bench: unknown transport %q (want direct or tcp)", transport)
	}
	if stopShards != nil {
		defer stopShards()
	}
	if transport == "tcp" {
		defer func() { _ = cl.Close() }()
	}
	hot := make([]*core.Object, cfg.Shards)
	for i := range hot {
		hot[i] = cl.Shard(i).NewObject(fmt.Sprintf("hot%d", i),
			baseline.SpecFor("Account"), baseline.ConflictFor("hybrid", "Account"))
		// Prefund so every debit succeeds: the probe measures lock
		// behaviour of conflicting Ok-debits, not overdraft churn.
		tx := cl.Begin()
		br, err := tx.Branch(hot[i])
		if err != nil {
			return ClusterBenchResult{}, err
		}
		if _, err := hot[i].Call(br, adt.CreditInv(1<<40)); err != nil {
			return ClusterBenchResult{}, err
		}
		if err := tx.Commit(); err != nil {
			return ClusterBenchResult{}, err
		}
	}

	// Baseline after prefunding, so the published commit-path counters
	// cover exactly the measurement window.
	base := cl.Stats()

	// callsOn executes n operations on obj through br: one conflicting
	// debit first, non-conflicting credits after.
	callsOn := func(br *core.Tx, obj *core.Object, n int) error {
		for i := 0; i < n; i++ {
			inv := adt.CreditInv(int64(i%3 + 1))
			if i == 0 {
				inv = adt.DebitInv(1)
			}
			if _, err := obj.Call(br, inv); err != nil {
				return err
			}
		}
		return nil
	}

	var committed, retries atomic.Int64
	var workerErr atomic.Pointer[error]
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < cfg.Workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(g), 0x5ad))
			for {
				select {
				case <-stop:
					return
				default:
				}
				cross := cfg.Shards > 1 && rng.IntN(100) < cfg.CrossPct
				a := rng.IntN(cfg.Shards)
				b := a
				if cross {
					b = (a + 1 + rng.IntN(cfg.Shards-1)) % cfg.Shards
				}
				tx := cl.Begin()
				err := func() error {
					brA, err := tx.Branch(hot[a])
					if err != nil {
						return err
					}
					half := cfg.OpsPerTx
					if cross {
						half = (cfg.OpsPerTx + 1) / 2
					}
					if err := callsOn(brA, hot[a], half); err != nil {
						return err
					}
					if !cross {
						return nil
					}
					brB, err := tx.Branch(hot[b])
					if err != nil {
						return err
					}
					return callsOn(brB, hot[b], cfg.OpsPerTx-half)
				}()
				if err == nil {
					if cfg.Hold > 0 {
						time.Sleep(cfg.Hold)
					}
					err = tx.Commit()
				}
				if err == nil {
					committed.Add(1)
					continue
				}
				_ = tx.Abort()
				if errors.Is(err, core.ErrTimeout) || errors.Is(err, cluster.ErrCommitAborted) {
					retries.Add(1)
					continue
				}
				// A silently dead worker would depress the published
				// numbers while the config block still claims full
				// concurrency; fail the run loudly instead.
				workerErr.CompareAndSwap(nil, &err)
				return
			}
		}(g)
	}
	start := time.Now()
	time.Sleep(cfg.Duration)
	close(stop)
	wg.Wait()
	elapsed := time.Since(start)
	if p := workerErr.Load(); p != nil {
		return ClusterBenchResult{}, fmt.Errorf("bench: worker failed: %w", *p)
	}

	st := cl.Stats()
	return ClusterBenchResult{
		Shards:            cfg.Shards,
		CrossPct:          cfg.CrossPct,
		Transport:         transport,
		GroupCommit:       cfg.GroupCommit,
		Committed:         committed.Load(),
		FastPathCommits:   st.FastPathCommits - base.FastPathCommits,
		CrossShardCommits: st.CrossShardCommits - base.CrossShardCommits,
		Retries:           retries.Load(),
		TxPerSec:          float64(committed.Load()) / elapsed.Seconds(),
		GroupBatches:      st.Total.GroupBatches - base.Total.GroupBatches,
		GroupBatchTxs:     st.Total.GroupBatchTxs - base.Total.GroupBatchTxs,
	}, nil
}
