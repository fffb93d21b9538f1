package hybridcc

import (
	crand "crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"
	"time"

	"hybridcc/internal/backoff"
	"hybridcc/internal/cluster"
	"hybridcc/internal/commitproto"
	"hybridcc/internal/netproto"
	"hybridcc/internal/wal"
)

// ErrShardUnavailable reports a shard server that could not be reached or
// failed mid-round-trip.  Atomically retries it: the failed transaction
// aborted on every shard (or will resolve by presumed abort), so a fresh
// attempt is always safe.
var ErrShardUnavailable = netproto.ErrUnavailable

// ErrShardDown reports a shard whose per-connection circuit breaker is
// open: enough consecutive transport failures accumulated that the client
// stopped dialing and now fails requests to that shard immediately,
// probing for recovery on a jittered exponential schedule.  Unlike
// ErrShardUnavailable it does NOT mean "try again right now" — the shard
// was already down moments ago.  Atomically retries it only under a
// context deadline; without one it returns at once.  errors.As against
// *ShardDownError recovers which shard and since when.
var ErrShardDown = netproto.ErrShardDown

// ShardDownError is the typed form of ErrShardDown: the shard index and
// the time its breaker opened.
type ShardDownError = netproto.ShardDownError

// PartialSnapshotError reports a cluster-wide snapshot that covered only
// part of the cluster because some shards' read branches could not be
// opened (shard down, breaker open).  Reads on the healthy shards were
// still consistent at the snapshot timestamp; Missing names the shards
// that were not observed.  Returned by DReadTx.Commit (and so by
// Snapshot/SnapshotCtx) on a dialed cluster with unreachable shards.
type PartialSnapshotError = cluster.PartialSnapshotError

// BackoffPolicy is a jittered exponential backoff schedule: delays start
// at Base, double per attempt up to Cap, and each is equal-jittered into
// [d/2, d].  The zero value means the default schedule (100ms → 2s).
type BackoffPolicy = backoff.Policy

// WithShardBreaker tunes Dial's per-shard circuit breakers.  threshold is
// the number of CONSECUTIVE transport failures that opens a breaker
// (0 or negative keeps the default of 3);
// probe is the jittered exponential schedule for half-open recovery
// probes (zero keeps the default of 100ms doubling to 2s).  While a
// breaker is open, requests touching that shard fail fast with
// ErrShardDown instead of stalling on dial timeouts; other shards are
// unaffected.
func WithShardBreaker(threshold int, probe BackoffPolicy) Option {
	return func(c *config) {
		c.breakerThreshold = threshold
		c.breakerBackoff = probe
	}
}

// WithDialDecisionLog makes a dialed cluster's commit-decision ledger
// durable in dir: every cross-shard commit decision is fsynced there
// before any shard is told to commit, and a later Dial from the same dir
// reloads it.  The ledger also remembers every transaction-identifier
// prefix it has dialed under, so a client restarted over the same dir
// recognizes its crashed incarnations' prepared branches as its own to
// resolve (and leaves other clients' branches alone).  A decision is
// discharged once every shard acknowledges it durably applied, and the
// ledger cuts its log while it runs once the discharged records dominate,
// so a long-lived ledger stays bounded without a restart.  Dial refuses a
// dir that holds a shard's log.  Without this option the ledger is
// in-memory — enough to resolve a shard that crashes and restarts while
// this client lives, but a client that dies with undelivered decisions
// leaves its prepared shards waiting for some other resolver.
func WithDialDecisionLog(dir string) Option {
	return func(c *config) { c.dialDecisionDir = dir }
}

// Dial connects to a cluster of hybrid-shardd processes and returns a
// Cluster with the same API an in-process one has: the same typed
// objects, the same Atomically/Snapshot, the same Verify — but every
// branch operation is an RPC, single-shard commits take the remote fast
// path, and cross-shard commits run two-phase commit over the
// connections, timestamps piggybacked on the protocol messages exactly
// as in-process.  addrs[i] must be the server for shard i; placement
// hashes object names modulo len(addrs), so the address order must be
// the same for every client of one cluster.
//
// setup runs once on the connected cluster, before Dial returns — the
// place to register (or re-register: registration is idempotent) the
// client's objects.  Registrations made inside setup are batched: NewX
// returns once the checks this process can make pass (a duplicate name,
// an unknown scheme, a type that is not built-in), and when setup returns
// every shard is sent its batch as one message, all shards in parallel.
// Each shard writes its batch to its catalog with one fsync before it
// acknowledges, and a batch a shard refuses (an object already registered
// there under another type, a catalog write that fails, a shard that cannot
// be reached) fails Dial with an error naming the object.  A setup that
// returns an error sends nothing.  Any other request to a shard — a
// transaction begun inside setup, say — first sends that shard the
// registrations queued so far.  Outside setup, NewX registers at once and
// returns the shard's verdict.  Only the built-in types travel the wire; a
// custom Spec's behaviour lives in this process, so NewCustom fails on a
// dialed cluster.
//
// Transaction identifiers are salted with a random per-Dial prefix, so
// concurrent clients of one cluster never collide in the shards' logs.
// Cross-shard commit decisions go to the client's decision ledger
// (durable with WithDialDecisionLog) before any shard commits.  A shard
// that crashes mid-protocol and restarts is fed its pending decisions
// from the ledger when this client reconnects; branches this client
// coordinated (under any of the ledger's prefixes) with no ledgered
// decision presume abort, and branches coordinated by OTHER clients are
// left pending for their own coordinators — the shard keeps refusing new
// work until every coordinator has resolved its own.
//
// Of the usual Options, WithRecorder (client-local verification) and
// WithCommitTimeout (here bounding every RPC round trip, not just
// protocol messages) apply; the per-shard engine knobs are fixed by each
// server's own flags.
func Dial(addrs []string, setup func(*Cluster) error, opts ...Option) (*Cluster, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("hybridcc: Dial needs at least one shard address")
	}
	var c config
	for _, o := range opts {
		o(&c)
	}
	timeout := c.commitTimeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}

	var nonce [4]byte
	if _, err := crand.Read(nonce[:]); err != nil {
		return nil, fmt.Errorf("hybridcc: tx-id nonce: %w", err)
	}
	prefix := hex.EncodeToString(nonce[:]) + "-"
	ledger, err := commitproto.OpenLedger(c.dialDecisionDir, prefix, wal.Options{Sync: true})
	if err != nil {
		return nil, fmt.Errorf("hybridcc: decision log: %w", err)
	}

	conns := make([]cluster.RemoteConn, len(addrs))
	clients := make([]*netproto.ShardClient, len(addrs))
	for i, addr := range addrs {
		sc, err := netproto.DialShard(addr, i, len(addrs), netproto.ClientOptions{
			Timeout:          timeout,
			DecisionFor:      ledger.Lookup,
			Owns:             ledger.Owns,
			DecisionAcked:    ledger.Ack,
			BreakerThreshold: c.breakerThreshold,
			BreakerBackoff:   c.breakerBackoff,
		})
		if err != nil {
			for _, prev := range conns[:i] {
				_ = prev.Close()
			}
			_ = ledger.Close()
			return nil, fmt.Errorf("hybridcc: dial shard %d: %w", i, err)
		}
		conns[i], clients[i] = sc, sc
	}

	ropts := cluster.RemoteOptions{
		CommitTimeout: timeout,
		IDPrefix:      prefix,
		Ledger:        ledger,
	}
	if c.recorder != nil {
		ropts.Sink = c.recorder
	}
	inner, err := cluster.NewRemote(conns, ropts)
	if err != nil {
		for _, conn := range conns {
			_ = conn.Close()
		}
		_ = ledger.Close()
		return nil, err
	}
	cl := &Cluster{inner: inner, recorder: c.recorder, reg: newRegistry()}
	if setup != nil {
		for _, sc := range clients {
			sc.HoldRegistrations()
		}
		if err := setup(cl); err != nil {
			_ = cl.Close() // a closed shard client sends nothing it holds
			return nil, fmt.Errorf("hybridcc: Dial setup: %w", err)
		}
		errs := make([]error, len(clients))
		var wg sync.WaitGroup
		for i, sc := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = sc.SendHeldRegistrations()
			}()
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				_ = cl.Close()
				return nil, fmt.Errorf("hybridcc: Dial setup: shard %d: %w", i, err)
			}
		}
	}
	return cl, nil
}
