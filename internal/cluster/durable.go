package cluster

import (
	"fmt"
	"os"
	"strconv"
	"strings"

	"hybridcc/internal/core"
	"hybridcc/internal/histories"
	"hybridcc/internal/spec"
)

// coordDirName is the coordinator decision log's subdirectory, next to the
// shard<i> log directories under Options.Durability.Dir.
const coordDirName = "coord"

// shardDirIndex parses "shard<n>", returning -1 for other names.
func shardDirIndex(name string) int {
	s, ok := strings.CutPrefix(name, "shard")
	if !ok {
		return -1
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 {
		return -1
	}
	return n
}

// checkShardLayout rejects reopening a durable cluster with a different
// shard count: placement hashes names modulo the shard count, so a changed
// count would recover objects onto shards that no longer own them.
func checkShardLayout(dir string, shards int) error {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	existing := 0
	for _, e := range entries {
		if e.IsDir() && shardDirIndex(e.Name()) >= 0 {
			existing++
		}
	}
	if existing > 0 && existing != shards {
		return fmt.Errorf("cluster: log directory %s holds %d shard logs but Shards=%d — the shard count cannot change across restarts (placement hashes modulo the count)", dir, existing, shards)
	}
	return nil
}

// FinishRecovery completes a durable cluster's recovery, after every
// object has been registered on its shard:
//
//  1. each shard's prepared-but-undecided branches are resolved from the
//     coordinator's decision log — a logged commit decision commits the
//     branch at the decided timestamp (durably, via a shard commit
//     record); no decision means presumed abort;
//  2. committed transactions are merged across shard logs by identifier
//     (a cross-shard transaction has a commit record on every shard it
//     touched, all carrying the same timestamp) and replayed in one
//     global timestamp-ordered pass, so a shared recorder sees one
//     well-formed serial prefix;
//  3. the cluster's transaction counter advances past every recovered
//     identifier.
//
// On a volatile cluster it is a no-op.  Call exactly once, before any
// transaction begins.
func (c *Cluster) FinishRecovery() error {
	if !c.durable() {
		return nil
	}
	for _, sys := range c.shards {
		for _, p := range sys.RecoveredPending() {
			ts, ok := c.ledger.Lookup(p.ID)
			if !ok {
				continue // presumed abort, handled by AbandonPending
			}
			if err := sys.ResolvePending(p.ID, ts); err != nil {
				return err
			}
		}
		if err := sys.AbandonPending(); err != nil {
			return err
		}
		if err := sys.SeedCheckpointObjects(); err != nil {
			return err
		}
	}

	// Per-shard checkpoint frontiers: shard i's checkpoint durably covers
	// every transaction with a timestamp below covered[i] at the objects it
	// owns, so such transactions need no commit record there; folded[i] is
	// the shard's maximum fold horizon (zero without a checkpoint), the
	// looser bound the fsynced-log accounting below is entitled to.  The
	// cut timestamps keep the coordinator clock ahead of folded
	// transactions a shard clock alone might no longer witness.
	covered := make([]histories.Timestamp, len(c.shards))
	folded := make([]histories.Timestamp, len(c.shards))
	for i, sys := range c.shards {
		cut, cov, fold := sys.RecoveredCheckpointFrontier()
		covered[i], folded[i] = cov, fold
		c.coordClock.Observe(cut)
	}

	merged := make(map[histories.TxID]int)
	legsOn := make(map[histories.TxID]map[int]bool)
	var txs []core.RecoveredTx
	for si, sys := range c.shards {
		for tx := range sys.RecoveredCommittedSeq() {
			if legsOn[tx.ID] == nil {
				legsOn[tx.ID] = make(map[int]bool)
			}
			legsOn[tx.ID][si] = true
			if i, ok := merged[tx.ID]; ok {
				if txs[i].TS != tx.TS {
					return fmt.Errorf("cluster: recovered %s committed at timestamp %d on one shard and %d on another — logs inconsistent", tx.ID, txs[i].TS, tx.TS)
				}
				txs[i].Ops = append(txs[i].Ops, tx.Ops...)
				// A resolution record re-logged by a previous recovery is
				// unstamped (Participants zero); keep the largest stamp so
				// the leg check below still sees the original count.
				if tx.Participants > txs[i].Participants {
					txs[i].Participants = tx.Participants
				}
				continue
			}
			merged[tx.ID] = len(txs)
			txs = append(txs, tx)
			c.coordClock.Observe(tx.TS)
		}
	}
	// Cross-shard atomicity check: every commit record of a cross-shard
	// transaction promises Participants legs, so fewer merged legs means a
	// shard log lost its commit record — possible only with fsync off,
	// where each log loses an independent buffered tail.  Replaying the
	// subset would tear the transaction; refuse instead.  A leg absent
	// because the owning shard's checkpoint folded it is accounted, not
	// missing: the transaction's effects are durable in that shard's
	// checkpoint images.
	for _, i := range merged {
		n := txs[i].Participants
		if n <= 0 || c.accountedLegs(txs[i], legsOn[txs[i].ID], covered, folded) >= n {
			continue
		}
		return fmt.Errorf("cluster: recovered %s on %d of its %d shards — a cross-shard leg is missing (a log opened with fsync off lost its buffered tail); the directory cannot be recovered atomically", txs[i].ID, len(legsOn[txs[i].ID]), n)
	}
	if err := core.Replay(txs); err != nil {
		return err
	}

	var maxSeq uint64
	for _, sys := range c.shards {
		if n := sys.MaxRecoveredSeq(); n > maxSeq {
			maxSeq = n
		}
	}
	if maxSeq > c.txSeq.Load() {
		c.txSeq.Store(maxSeq)
	}

	c.dischargeDecisions(covered, folded, legsOn, txs, merged)
	for _, sys := range c.shards {
		sys.MarkRecoveryDone()
	}
	return nil
}

// accountedLegs counts the shards where tx's commit is durable: shards
// whose log held a commit record, plus shards holding no record whose
// checkpoint provably holds the transaction's effects in its images.  Two
// coverage arguments apply to a missing leg:
//
//   - covered[si] > tx.TS: the transaction sits below every object's fold
//     horizon on that shard, so whichever objects the lost leg touched,
//     the images include it.  Sound even with fsync off (a checkpoint
//     snapshots committed in-memory state, so it preserves commits whose
//     unsynced records died with a crash).
//
//   - fsynced logs + a checkpoint + tx.TS < folded[si]: with fsync on,
//     every acknowledged record is durable, so a participating shard
//     always recovers its leg — as a commit record, a checkpoint
//     unforgotten entry, or a prepared branch the decision log resolves —
//     UNLESS truncation removed the records; and truncation removes only
//     what the checkpoint covers, which for a vanished commit leg means
//     folded into the images (an unforgotten leg would still surface as
//     recovered).  Folded entries sit strictly below their own object's
//     horizon, hence below the shard's maximum horizon folded[si], so the
//     timestamp bound costs nothing and guards the invariant.  The
//     per-object horizons can straddle tx.TS (one object folded past it,
//     another not), which is why the min-horizon bound alone is too
//     conservative here.
func (c *Cluster) accountedLegs(tx core.RecoveredTx, on map[int]bool, covered, folded []histories.Timestamp) int {
	n := len(on)
	for si := range c.shards {
		if on[si] {
			continue
		}
		if covered[si] > tx.TS || (c.logSynced && folded[si] > tx.TS) {
			n++
		}
	}
	return n
}

// dischargeDecisions retires decision records recovery can never need
// again: the transaction's commit is durable on every shard that might
// hold a leg.  A recovered transaction discharges when its accounted legs
// reach its participant count; a decision whose transaction appears on no
// shard at all discharges when every shard's checkpoint frontier has
// passed it (its legs were folded everywhere).  Resolution records
// re-logged without a participant count keep their decisions — a later
// recovery, once checkpoints fold them, discharges by the frontier rule.
func (c *Cluster) dischargeDecisions(covered, folded []histories.Timestamp, legsOn map[histories.TxID]map[int]bool, txs []core.RecoveredTx, merged map[histories.TxID]int) {
	for id, ts := range c.ledger.Decisions() {
		txid := histories.TxID(id)
		if i, ok := merged[txid]; ok {
			if n := txs[i].Participants; n > 0 && c.accountedLegs(txs[i], legsOn[txid], covered, folded) >= n {
				c.ledger.Discharge(txid)
			}
			continue
		}
		all := true
		for si := range c.shards {
			if covered[si] <= histories.Timestamp(ts) {
				all = false
				break
			}
		}
		if all {
			c.ledger.Discharge(txid)
		}
	}
}

// durable reports whether this is an in-process cluster with logs.
func (c *Cluster) durable() bool { return c.ledger != nil && c.remotes == nil }

// Close closes every shard's commit log, the shard connections of a dialed
// cluster, and the decision ledger.  Volatile clusters close as a no-op.
func (c *Cluster) Close() error {
	var first error
	for _, sys := range c.shards {
		if err := sys.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, conn := range c.remotes {
		if err := conn.Close(); err != nil && first == nil {
			first = err
		}
	}
	if c.ledger != nil {
		if err := c.ledger.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// CrashLogs simulates process death for crash tests: every shard log and
// the decision ledger drop their buffers and close, as one kill -9 would.
// No-op on a volatile cluster.
func (c *Cluster) CrashLogs() {
	for _, sys := range c.shards {
		sys.CrashLog()
	}
	if c.ledger != nil {
		c.ledger.Crash()
	}
}

// Checkpoint takes a checkpoint on every shard, sequentially, and returns
// the first error (later shards are still attempted — each shard's
// checkpoint is independent, and a full disk on one should not stop the
// others from reclaiming their logs).  Errors on a volatile cluster.
func (c *Cluster) Checkpoint() error {
	if !c.durable() {
		return fmt.Errorf("cluster: Checkpoint without durability")
	}
	var first error
	for i, sys := range c.shards {
		if err := sys.Checkpoint(); err != nil && first == nil {
			first = fmt.Errorf("cluster: shard %d: %w", i, err)
		}
	}
	return first
}

// CheckpointStats sums the shards' checkpoint counters; LastCutTS and
// LastAge report the worst shard (oldest last checkpoint), since the
// cluster's recovery bound is its slowest shard's.
func (c *Cluster) CheckpointStats() core.CheckpointStats {
	var out core.CheckpointStats
	for i, sys := range c.shards {
		st := sys.CheckpointStats()
		out.Checkpoints += st.Checkpoints
		out.Failures += st.Failures
		out.BytesSince += st.BytesSince
		out.BytesReclaimed += st.BytesReclaimed
		out.SegmentsRemoved += st.SegmentsRemoved
		if i == 0 || st.LastAge > out.LastAge {
			out.LastAge = st.LastAge
		}
		if st.LastCutTS > out.LastCutTS {
			out.LastCutTS = st.LastCutTS
		}
	}
	return out
}

// RecoveredBases merges every shard's checkpoint-seeded base states
// (object names are unique cluster-wide, so the union is disjoint); nil
// when no shard recovered from a checkpoint.
func (c *Cluster) RecoveredBases() map[histories.ObjID]spec.State {
	var out map[histories.ObjID]spec.State
	for _, sys := range c.shards {
		for name, st := range sys.RecoveredBases() {
			if out == nil {
				out = make(map[histories.ObjID]spec.State)
			}
			out[name] = st
		}
	}
	return out
}
