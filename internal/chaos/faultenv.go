package chaos

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"hybridcc/internal/adt"
	"hybridcc/internal/baseline"
	"hybridcc/internal/cluster"
	"hybridcc/internal/commitproto"
	"hybridcc/internal/core"
	"hybridcc/internal/histories"
	"hybridcc/internal/verify"
)

// FaultEnv is the in-process chaos environment: a cluster whose
// cross-shard commit protocol runs through one persistent
// commitproto.FaultTransport controller per shard, so partitions and
// reorderings are injected at the transport seam with no real network.
// Crash and restart are unsupported — an in-process shard has no process
// to kill; the real-process harness covers those.
//
// The workload state is one increment-only out-counter and in-counter
// per shard; Transfer adds the same amount to out[from] and in[to] in one
// transaction, so Check's exact-balance comparison
// sum(out) == sum(in) == acked detects both a torn transfer (legs
// disagree) and a lost acknowledged one (acked disagrees).
type FaultEnv struct {
	c       *cluster.Cluster
	rec     *verify.Recorder
	ctls    []*commitproto.FaultTransport
	out     []*core.Object
	in      []*core.Object
	durable bool
	// bases holds checkpoint-recovered base states (durable reopen only):
	// the recorder then sees only the post-checkpoint tail as its serial
	// prefix, so Check must verify the history from these states, not from
	// the specs' initial ones.
	bases histories.StateMap

	acked atomic.Int64
}

var _ Env = (*FaultEnv)(nil)

// NewFaultEnv builds a volatile cluster of the given shard count wired for
// fault injection and registers the workload counters.  Checkpoint steps
// report ErrUnsupported; NewDurableFaultEnv supports them.
func NewFaultEnv(shards int) (*FaultEnv, error) {
	return newFaultEnv(shards, nil)
}

// NewDurableFaultEnv is NewFaultEnv with per-shard write-ahead commit logs
// under dir, so schedules can take checkpoints mid-flight and the
// environment can be reopened over the same directory to exercise bounded
// recovery.
func NewDurableFaultEnv(shards int, dir string) (*FaultEnv, error) {
	return newFaultEnv(shards, &core.Durability{Dir: dir, Sync: true, SegmentSize: 1})
}

func newFaultEnv(shards int, d *core.Durability) (*FaultEnv, error) {
	e := &FaultEnv{
		rec:     verify.NewRecorder(),
		ctls:    make([]*commitproto.FaultTransport, shards),
		durable: d != nil,
	}
	for i := range e.ctls {
		e.ctls[i] = commitproto.NewFaultTransport()
	}
	c, err := cluster.New(cluster.Options{
		Shards:   shards,
		LockWait: time.Second,
		// Chaos rounds hit unreachable participants constantly; the
		// default 5s per-message timeout would turn every one into a long
		// stall.  Decisions captured past the timeout still land — the
		// coordinator re-applies them locally — so a short bound only
		// shortens the schedule, never changes its outcome.
		CommitTimeout: 250 * time.Millisecond,
		Sink:          e.rec,
		Durability:    d,
		WrapTransport: func(shard int, tr commitproto.Transport) commitproto.Transport {
			return e.ctls[shard].Wrap(tr)
		},
	})
	if err != nil {
		return nil, err
	}
	e.c = c
	for i := 0; i < shards; i++ {
		e.out = append(e.out, c.Shard(i).NewObject(fmt.Sprintf("out%d", i),
			adt.NewCounter(), baseline.ConflictFor("hybrid", "Counter")))
		e.in = append(e.in, c.Shard(i).NewObject(fmt.Sprintf("in%d", i),
			adt.NewCounter(), baseline.ConflictFor("hybrid", "Counter")))
	}
	if err := c.FinishRecovery(); err != nil {
		_ = c.Close()
		return nil, err
	}
	if bases := c.RecoveredBases(); len(bases) > 0 {
		e.bases = histories.StateMap(bases)
	}
	return e, nil
}

// Shards implements Env.
func (e *FaultEnv) Shards() int { return len(e.ctls) }

// Transfer implements Env: one atomic transfer, cross-shard when
// from != to, counted as acknowledged only when Commit succeeds.
func (e *FaultEnv) Transfer(from, to int, amount int64) error {
	tx := e.c.Begin()
	br, err := tx.Branch(e.out[from])
	if err == nil {
		_, err = e.out[from].Call(br, adt.IncInv(amount))
	}
	if err == nil {
		var brIn *core.Tx
		if brIn, err = tx.Branch(e.in[to]); err == nil {
			_, err = e.in[to].Call(brIn, adt.IncInv(amount))
		}
	}
	if err == nil {
		err = tx.Commit()
	}
	if err != nil {
		_ = tx.Abort()
		return err
	}
	e.acked.Add(amount)
	return nil
}

// Partition implements Env: every protocol message to the shard is lost
// until Heal — requests and replies alike, so the coordinator sees it
// unreachable and the shard sees silence.
func (e *FaultEnv) Partition(shard int) error {
	e.ctls[shard].SetPartitioned(true)
	return nil
}

// Heal implements Env.
func (e *FaultEnv) Heal(shard int) error {
	e.ctls[shard].SetPartitioned(false)
	return nil
}

// Crash implements Env: unsupported in-process.
func (e *FaultEnv) Crash(int) error { return ErrUnsupported }

// Restart implements Env: unsupported in-process.
func (e *FaultEnv) Restart(int) error { return ErrUnsupported }

// Reorder implements Env: the next commit decision to the shard is
// captured and released after k further protocol messages.
func (e *FaultEnv) Reorder(shard, k int) error {
	e.ctls[shard].ScriptReorder(commitproto.ClassCommit, k)
	return nil
}

// Checkpoint implements Env: the shard captures its committed state and
// truncates covered log segments, concurrently with in-flight transfers.
// Unsupported on a volatile environment.
func (e *FaultEnv) Checkpoint(shard int) error {
	if !e.durable {
		return ErrUnsupported
	}
	return e.c.Shard(shard).Checkpoint()
}

// CheckpointStats sums the shards' checkpoint counters.
func (e *FaultEnv) CheckpointStats() core.CheckpointStats { return e.c.CheckpointStats() }

// Settle implements Env.  In-process, a reached commit decision is
// re-applied to every branch before Commit returns (the recovery rule:
// a participant that voted applies the decision when it learns it), so
// acknowledged means applied already; there is nothing to wait for.
func (e *FaultEnv) Settle() error { return nil }

// Check implements Env: the exact-balance invariant over committed
// state, then hybrid atomicity of the recorded global history.
func (e *FaultEnv) Check() error {
	var out, in int64
	for i := range e.out {
		out += adt.CounterValue(e.out[i].CommittedState())
		in += adt.CounterValue(e.in[i].CommittedState())
	}
	if acked := e.acked.Load(); out != in || out != acked {
		return fmt.Errorf("chaos: balance torn: sum(out)=%d sum(in)=%d acked=%d", out, in, acked)
	}
	specs := histories.SpecMap{}
	for i := range e.out {
		specs[e.out[i].Name()] = adt.NewCounter()
		specs[e.in[i].Name()] = adt.NewCounter()
	}
	isReadOnly := func(id histories.TxID) bool { return strings.HasPrefix(string(id), "R") }
	return verify.CheckGeneralizedHybridAtomicFrom(e.rec.History(), specs, e.bases, isReadOnly)
}

// Controller exposes shard i's fault controller, for tests asserting on
// drop counts or pending reorders.
func (e *FaultEnv) Controller(i int) *commitproto.FaultTransport { return e.ctls[i] }

// Acked reports the total acknowledged transfer amount.
func (e *FaultEnv) Acked() int64 { return e.acked.Load() }

// Close releases the cluster.
func (e *FaultEnv) Close() error { return e.c.Close() }
