package main

import "testing"

func TestPlanIsAPureFunctionOfWorkloadSeedClient(t *testing.T) {
	for _, w := range workloads {
		a, b := planDigest(w, 1, 0), planDigest(w, 1, 0)
		if a != b {
			t.Errorf("%s: same seed and client gave digests %s and %s", w.name, a, b)
		}
		if c := planDigest(w, 2, 0); c == a {
			t.Errorf("%s: seeds 1 and 2 gave the same digest %s", w.name, a)
		}
		if c := planDigest(w, 1, 1); c == a {
			t.Errorf("%s: clients 0 and 1 gave the same digest %s", w.name, a)
		}
	}
	single, _ := workloadByName("wire-single")
	cross, _ := workloadByName("wire-cross")
	if planDigest(single, 1, 0) == planDigest(cross, 1, 0) {
		t.Error("wire-single and wire-cross share a plan")
	}
}

func TestPlanRespectsShapeAndPlacement(t *testing.T) {
	for _, w := range workloads {
		p := newPlanner(w, 7, 0)
		var tx txPlan
		reads := 0
		const n = 20000
		for i := 0; i < n; i++ {
			p.next(&tx)
			for _, k := range append([]int32{tx.src}, tx.dst[:tx.n]...) {
				if k < 0 || int(k) >= w.keys {
					t.Fatalf("%s: key %d outside [0, %d)", w.name, k, w.keys)
				}
			}
			if w.shape == shapeCount {
				if tx.n != countOps {
					t.Fatalf("%s: %d counters, want %d", w.name, tx.n, countOps)
				}
				if tx.read {
					reads++
				}
				continue
			}
			if tx.n != w.fanout || tx.amt != int64(w.fanout) {
				t.Fatalf("%s: fan-out %d amount %d, want %d", w.name, tx.n, tx.amt, w.fanout)
			}
			if w.place == placeAny {
				continue
			}
			src := p.shard[tx.src]
			for _, d := range tx.dst[:tx.n] {
				dst := p.shard[d]
				if w.place == placeSameShard && dst != src || w.place == placeOtherShard && dst == src {
					t.Fatalf("%s: source on shard %d, destination on shard %d", w.name, src, dst)
				}
			}
		}
		if w.shape == shapeCount && (reads < n*85/100 || reads > n*95/100) {
			t.Errorf("%s: %d of %d transactions are reads, want about %d%%", w.name, reads, n, countReadPct)
		}
	}
}

// Both shards must own a fair share of a wire workload's accounts, or the
// per-shard Zipf streams would not resemble the workload's.
func TestPlacementIsBalanced(t *testing.T) {
	w, _ := workloadByName("wire-cross")
	perShard := make([]int, wireShards)
	for _, s := range shardsOf(w) {
		perShard[s]++
	}
	for s, n := range perShard {
		if n < w.keys/4 {
			t.Errorf("shard %d owns only %d of %d accounts", s, n, w.keys)
		}
	}
}
