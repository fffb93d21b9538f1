package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"math/rand/v2"

	"hybridcc"
)

// sutKind is the system a workload runs against.
type sutKind int

const (
	sutMem  sutKind = iota // hybridcc.NewSystem, volatile
	sutDisk                // hybridcc.Open, fsync on, solo commit
	sutWire                // hybridcc.Dial to two hybrid-shardd processes
)

// placement constrains where a payment's destination lives relative to its
// source on a two-shard cluster.
type placement int

const (
	placeAny placement = iota
	placeSameShard
	placeOtherShard
)

// Transaction shapes.  Both are deadlock-free: a payment can block only on
// its leading debit (credits conflict with nothing that occurs), and a
// count transaction never blocks at all (Inc/Inc commute, readers take no
// locks).
const (
	shapePayment = "payment" // Debit(src, fanout) ok, then fanout × Credit(dst_i, 1)
	shapeCount   = "count"   // 0.9: Snapshot of 4 ReadAt; else update of 4 Inc(1)
)

const (
	wireShards    = 2
	countOps      = 4   // counters touched by one count transaction
	countReadPct  = 90  // share of count transactions that are snapshots
	maxFanout     = 7   // largest payment fan-out any workload uses
	zipfS         = 1.1 // key skew of every workload
	prefund       = int64(1) << 40
	latencyLimit  = int64(1e9) // ns: a slower transaction counts as failed
	planDigestLen = 4096       // transactions hashed by planDigest
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name   string
	why    string
	kind   sutKind
	shape  string
	fanout int // credits per payment
	keys   int // objects
	place  placement
}

// workloads lists the benchmark's workloads; names are fixed by
// BENCHMARK.json.
var workloads = []workload{
	{name: "mem-hot", kind: sutMem, shape: shapePayment, fanout: 7, keys: 8,
		why: "lock manager under contention: 8 hot accounts, 8 lock grants per transaction; wal, netproto and commitproto idle"},
	{name: "mem-readmix", kind: sutMem, shape: shapeCount, keys: 1024,
		why: "same core used differently: 90% lock-free snapshot readers beside committing writers, no lock waits"},
	{name: "disk-commit", kind: sutDisk, shape: shapePayment, fanout: 1, keys: 4096,
		why: "wal append + fsync on every commit and the background checkpointer dominate; lock waits are rare"},
	{name: "wire-single", kind: sutWire, shape: shapePayment, fanout: 1, keys: 2048, place: placeSameShard,
		why: "netproto does the work: 2 call RPCs + 1 fast-path commit RPC to one of two shardd processes; commitproto idle"},
	{name: "wire-cross", kind: sutWire, shape: shapePayment, fanout: 1, keys: 2048, place: placeOtherShard,
		why: "same netproto used differently: prepare round, decision ledger and decision round of two-phase commit across both shardd"},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// objectName is the registered name of a workload's i-th object.  Shard
// placement hashes it, so it is part of the inputs.
func objectName(w workload, i int) string {
	if w.shape == shapeCount {
		return fmt.Sprintf("ctr-%04d", i)
	}
	return fmt.Sprintf("acct-%04d", i)
}

// shardsOf returns the shard of each of w's objects on a cluster of
// wireShards, as the engine's own placement function gives it (a throwaway
// in-process cluster is asked; placement depends on the name and the shard
// count only).
func shardsOf(w workload) []uint8 {
	cl, err := hybridcc.NewCluster(wireShards)
	if err != nil {
		panic("benchmark: NewCluster(wireShards): " + err.Error()) // fails for a shard count below one only
	}
	defer cl.Close()
	shard := make([]uint8, w.keys)
	for i := range shard {
		shard[i] = uint8(cl.ShardFor(objectName(w, i)))
	}
	return shard
}

// txPlan is one generated transaction: the engine sees nothing of the
// generator but these indices.
type txPlan struct {
	read bool             // count: snapshot (true) or update
	src  int32            // payment: debited account
	dst  [maxFanout]int32 // payment: credited accounts; count: the counters
	n    int              // used entries of dst
	amt  int64            // payment: debited amount (= n, one unit per credit)
}

// planner produces one client's transaction stream.  It is a pure function
// of (workload, seed, client): per-client PCG streams, Zipf ranks mapped to
// object indices (rank 0, the hottest, is object 0 for every client, so
// clients contend on the same keys).
type planner struct {
	w       workload
	rng     *rand.Rand
	all     *rand.Zipf
	byShard [wireShards][]int32 // object indices per shard, in index order
	zShard  [wireShards]*rand.Zipf
	shard   []uint8 // shard of each object
}

func newPlanner(w workload, seed uint64, client int) *planner {
	h := fnv.New64a()
	_, _ = h.Write([]byte(w.name))
	rng := rand.New(rand.NewPCG(seed, h.Sum64()+uint64(client)))
	p := &planner{w: w, rng: rng, all: rand.NewZipf(rng, zipfS, 1, uint64(w.keys-1))}
	if w.place != placeAny {
		p.shard = shardsOf(w)
		for i, s := range p.shard {
			p.byShard[s] = append(p.byShard[s], int32(i))
		}
		for s := range p.byShard {
			p.zShard[s] = rand.NewZipf(rng, zipfS, 1, uint64(len(p.byShard[s])-1))
		}
	}
	return p
}

// next fills out with the client's next transaction.
func (p *planner) next(out *txPlan) {
	if p.w.shape == shapeCount {
		out.read = p.rng.IntN(100) < countReadPct
		out.n = countOps
		for i := 0; i < countOps; i++ {
			out.dst[i] = int32(p.all.Uint64())
		}
		return
	}
	out.n = p.w.fanout
	out.amt = int64(p.w.fanout)
	out.src = int32(p.all.Uint64())
	for i := 0; i < out.n; i++ {
		switch p.w.place {
		case placeAny:
			out.dst[i] = int32(p.all.Uint64())
		case placeSameShard:
			s := p.shard[out.src]
			out.dst[i] = p.byShard[s][p.zShard[s].Uint64()]
		case placeOtherShard:
			s := 1 - p.shard[out.src]
			out.dst[i] = p.byShard[s][p.zShard[s].Uint64()]
		}
	}
}

// planDigest hashes the first planDigestLen transactions of a client's
// stream; results record it so two runs can be shown to have had the same
// inputs.
func planDigest(w workload, seed uint64, client int) string {
	p := newPlanner(w, seed, client)
	h := sha256.New()
	var tx txPlan
	var buf [8]byte
	for i := 0; i < planDigestLen; i++ {
		p.next(&tx)
		b := byte(0)
		if tx.read {
			b = 1
		}
		_, _ = h.Write([]byte{b, byte(tx.n)})
		binary.LittleEndian.PutUint32(buf[:4], uint32(tx.src))
		_, _ = h.Write(buf[:4])
		for _, d := range tx.dst[:tx.n] {
			binary.LittleEndian.PutUint32(buf[:4], uint32(d))
			_, _ = h.Write(buf[:4])
		}
		binary.LittleEndian.PutUint64(buf[:], uint64(tx.amt))
		_, _ = h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}
