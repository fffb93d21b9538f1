package hybridcc

import (
	crand "crypto/rand"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"
	"time"

	"hybridcc/internal/backoff"
	"hybridcc/internal/cluster"
	"hybridcc/internal/histories"
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
// (0 keeps the default of 3; negative disables the breakers entirely);
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
// resolve (and leaves other clients' branches alone).  Entries are pruned
// once every shard acknowledges the decision durably applied, and the log
// compacts itself on open when the pruned records dominate, so a
// long-lived ledger stays bounded.  Without this option the ledger is
// in-memory — enough to resolve a shard that crashes and restarts while
// this client lives, but a client that dies with undelivered decisions
// leaves its prepared shards waiting for some other resolver.
func WithDialDecisionLog(dir string) Option {
	return func(c *config) { c.dialDecisionDir = dir }
}

// decisionLedger remembers the commit decisions a dialed cluster's
// coordinator has reached, keyed by transaction identifier, plus the
// identifier prefixes this ledger has ever coordinated under.  It backs
// presumed abort across process boundaries: reconnecting to a recovering
// shard feeds each of its pending prepared branches the ledgered decision
// — or, for a branch this ledger owns and holds no decision for, an
// abort.  Branches owned by other clients are not touched.
type decisionLedger struct {
	mu        sync.Mutex
	decisions map[string]int64
	owners    []string // identifier prefixes, current Dial's last
	log       *wal.Log // nil: in-memory only
}

// ledgerCompactThreshold is the number of dead (discharged or duplicate)
// records a ledger log tolerates before Open rewrites it; below this,
// compaction costs more than the space it reclaims.
const ledgerCompactThreshold = 512

// openDecisionLedger opens (or creates) the ledger, registering prefix as
// the new incarnation's identifier salt.  A durable ledger recovers any
// interrupted compaction, reloads undischarged decisions and prior
// owner prefixes, and compacts the log when dead records dominate.
func openDecisionLedger(dir, prefix string) (*decisionLedger, error) {
	l := &decisionLedger{decisions: make(map[string]int64), owners: []string{prefix}}
	if dir == "" {
		return l, nil
	}
	if err := recoverLedgerCompaction(dir); err != nil {
		return nil, fmt.Errorf("hybridcc: decision log: %w", err)
	}
	dl, recs, err := wal.Open(dir, wal.Options{Sync: true})
	if err != nil {
		return nil, fmt.Errorf("hybridcc: decision log: %w", err)
	}
	sum := wal.Summarize(recs)
	l.decisions = sum.Decisions
	l.owners = append(sum.Owners, prefix)

	live := len(sum.Decisions) + len(sum.Owners)
	if dead := len(recs) - live; dead > ledgerCompactThreshold && dead > live {
		if err := dl.Close(); err != nil {
			return nil, fmt.Errorf("hybridcc: decision log: %w", err)
		}
		if err := compactLedgerDir(dir, l.owners, l.decisions); err != nil {
			return nil, fmt.Errorf("hybridcc: decision log compaction: %w", err)
		}
		if dl, _, err = wal.Open(dir, wal.Options{Sync: true}); err != nil {
			return nil, fmt.Errorf("hybridcc: decision log: %w", err)
		}
		// The compact pass wrote the new owner record; nothing to append.
		l.log = dl
		return l, nil
	}
	if err := dl.AppendSync(wal.Record{Kind: wal.KindOwner, Tx: prefix}); err != nil {
		_ = dl.Close()
		return nil, fmt.Errorf("hybridcc: decision log: %w", err)
	}
	l.log = dl
	return l, nil
}

// compactLedgerDir rewrites the ledger directory to exactly the live
// records via the crash-safe wal.CompactDir two-rename swap.
func compactLedgerDir(dir string, owners []string, decisions map[string]int64) error {
	recs := make([]wal.Record, 0, len(owners)+len(decisions))
	for _, p := range owners {
		recs = append(recs, wal.Record{Kind: wal.KindOwner, Tx: p})
	}
	for tx, ts := range decisions {
		recs = append(recs, wal.Record{Kind: wal.KindDecision, Tx: tx, TS: ts})
	}
	return wal.CompactDir(dir, recs, wal.Options{Sync: true})
}

// recoverLedgerCompaction settles a compaction a crash interrupted.
func recoverLedgerCompaction(dir string) error { return wal.RecoverCompaction(dir) }

// record is the coordinator's decision hook: remember (and persist, when
// durable) before any shard learns the decision.
func (l *decisionLedger) record(tx histories.TxID, ts histories.Timestamp) error {
	l.mu.Lock()
	l.decisions[string(tx)] = int64(ts)
	log := l.log
	l.mu.Unlock()
	if log != nil {
		return log.AppendSync(wal.Record{Kind: wal.KindDecision, Tx: string(tx), TS: int64(ts)})
	}
	return nil
}

// discharge retires a decision every shard has durably applied: no
// recovery can need it again.  The discharge record is buffered, not
// fsynced — losing it to a crash merely keeps the decision around, which
// is safe (stale decisions are garbage, never a hazard).
func (l *decisionLedger) discharge(tx histories.TxID, _ histories.Timestamp) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.decisions[string(tx)]; !ok {
		return
	}
	delete(l.decisions, string(tx))
	if l.log != nil {
		_ = l.log.Append(wal.Record{Kind: wal.KindDischarge, Tx: string(tx)})
	}
}

// lookup answers a recovering shard's pending-branch query.
func (l *decisionLedger) lookup(tx histories.TxID) (histories.Timestamp, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	ts, ok := l.decisions[string(tx)]
	return histories.Timestamp(ts), ok
}

// owns reports whether tx was coordinated by this ledger — some
// incarnation of it minted the identifier ("T<prefix><n>"/"R<prefix><n>").
// Only owned branches may be presumed aborted on a recovering shard;
// foreign ones are their own coordinator's to resolve.
func (l *decisionLedger) owns(tx histories.TxID) bool {
	id := string(tx)
	if len(id) > 0 && (id[0] == 'T' || id[0] == 'R') {
		id = id[1:]
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, p := range l.owners {
		if strings.HasPrefix(id, p) {
			return true
		}
	}
	return false
}

func (l *decisionLedger) close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.log == nil {
		return nil
	}
	err := l.log.Close()
	l.log = nil
	return err
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
	ledger, err := openDecisionLedger(c.dialDecisionDir, prefix)
	if err != nil {
		return nil, err
	}

	conns := make([]cluster.RemoteConn, len(addrs))
	clients := make([]*netproto.ShardClient, len(addrs))
	for i, addr := range addrs {
		sc, err := netproto.DialShard(addr, i, len(addrs), netproto.ClientOptions{
			Timeout:          timeout,
			DecisionFor:      ledger.lookup,
			Owns:             ledger.owns,
			BreakerThreshold: c.breakerThreshold,
			BreakerBackoff:   c.breakerBackoff,
		})
		if err != nil {
			for _, prev := range conns[:i] {
				_ = prev.Close()
			}
			_ = ledger.close()
			return nil, fmt.Errorf("hybridcc: dial shard %d: %w", i, err)
		}
		conns[i], clients[i] = sc, sc
	}

	ropts := cluster.RemoteOptions{
		CommitTimeout:      timeout,
		IDPrefix:           prefix,
		OnDecision:         ledger.record,
		OnDecisionResolved: ledger.discharge,
		CloseHook:          ledger.close,
	}
	if c.recorder != nil {
		ropts.Sink = c.recorder
	}
	inner, err := cluster.NewRemote(conns, ropts)
	if err != nil {
		for _, conn := range conns {
			_ = conn.Close()
		}
		_ = ledger.close()
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
