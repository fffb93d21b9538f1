package commitproto

import (
	"fmt"
	"maps"
	"os"
	"strings"
	"sync"

	"hybridcc/internal/histories"
	"hybridcc/internal/wal"
)

// Ledger is a coordinator's record of the commit decisions it has reached
// and not yet discharged, plus the transaction-identifier prefixes it has
// coordinated under: presumed abort commits a prepared branch at its
// ledgered timestamp and aborts an owned branch with none.
//
// With no directory a ledger lives in memory.  Over a directory it keeps a
// wal.Log and reclaims it while it runs, as §6 forgets what no recovery can
// need: once the dead records (discharged or duplicate) exceed
// ledgerDeadRecords and outnumber the live ones, it cuts — Rotate, append
// the live set (owners and undischarged decisions), seal it with a flush
// and fsync whatever the Sync mode, then unlink every segment below the
// cut.  A crash anywhere in a cut keeps every live record; a discharged
// decision may come back, as garbage.  The check runs at open and in
// Discharge, the one call that makes dead records.  Safe for concurrent
// use.
type Ledger struct {
	mu        sync.Mutex
	decisions map[string]int64
	unacked   map[string]int // the acknowledgements a decision awaits before Ack discharges it
	owners    []string
	log       *wal.Log                // nil: in memory
	records   int                     // in the log: the last cut's live set and every append since
	step      func(step string) error // a test stops a cut after a step
}

// ledgerDeadRecords is the number of dead records a ledger log holds before
// a cut; below it a cut costs more than the space it reclaims.
const ledgerDeadRecords = 512

// OpenLedger opens the ledger kept in dir, or an in-memory one when dir is
// empty, and registers owner, unless it is empty, as an identifier prefix
// it coordinates under.  opts configures the log.  It refuses a directory
// that holds a shard's log (commit, prepared or abort records, or a
// checkpoint), and one beside which a crashed compaction of an earlier
// version left dir.compact or dir.old: that swap must be settled by hand.
func OpenLedger(dir, owner string, opts wal.Options) (*Ledger, error) {
	l := &Ledger{decisions: make(map[string]int64), unacked: make(map[string]int), step: func(string) error { return nil }}
	if owner != "" {
		l.owners = []string{owner}
	}
	if dir == "" {
		return l, nil
	}
	for _, p := range []string{dir + ".compact", dir + ".old"} {
		if _, err := os.Stat(p); err == nil {
			return nil, fmt.Errorf("commitproto: ledger %s: %s is left by an earlier version's interrupted compaction; settle it by hand: with %s absent, its .compact is the complete ledger, and a .old is stale", dir, p, dir)
		}
	}
	if ck, err := wal.CheckpointFiles(dir); err != nil || len(ck) > 0 {
		if err == nil {
			err = fmt.Errorf("holds checkpoint %s: it is a shard's log", ck[0])
		}
		return nil, fmt.Errorf("commitproto: ledger %s: %w", dir, err)
	}
	log, recs, err := wal.Open(dir, opts)
	if err != nil {
		return nil, fmt.Errorf("commitproto: ledger: %w", err)
	}
	for _, r := range recs {
		if !r.Kind.Ledger() {
			_ = log.Close()
			return nil, fmt.Errorf("commitproto: ledger %s holds a %s record: it is a shard's log", dir, r.Kind)
		}
	}
	sum := wal.Summarize(recs)
	l.decisions, l.owners, l.log, l.records = sum.Decisions, append(sum.Owners, l.owners...), log, len(recs)
	if owner != "" {
		l.records++
		err = log.AppendSync(wal.Record{Kind: wal.KindOwner, Tx: owner})
	}
	if err == nil && l.deadLocked() {
		err = l.cutLocked()
	}
	if err != nil {
		_ = log.Close()
		return nil, fmt.Errorf("commitproto: ledger: %w", err)
	}
	return l, nil
}

// Record is the coordinator's decision hook (Coordinator.SetDecisionLog):
// it remembers tx's commit at ts, to be discharged by the acknowledgements
// of its parts participants (Ack) or by Discharge, and, on a durable
// ledger, returns once the record is as durable as the log's Sync mode
// makes it.  A decision it could not log is forgotten, since the round it
// belongs to aborts.
func (l *Ledger) Record(tx histories.TxID, ts histories.Timestamp, parts int) error {
	l.mu.Lock()
	l.decisions[string(tx)] = int64(ts)
	l.unacked[string(tx)] = parts
	var err error
	if l.log != nil {
		l.records++
		err = l.log.Append(wal.Record{Kind: wal.KindDecision, Tx: string(tx), TS: int64(ts)})
	}
	l.mu.Unlock()
	if err == nil && l.log != nil {
		err = l.log.Sync() // outside mu, so concurrent rounds share the fsync
	}
	if err != nil {
		l.mu.Lock()
		delete(l.decisions, string(tx))
		delete(l.unacked, string(tx))
		l.mu.Unlock()
	}
	return err
}

// Ack counts one participant's acknowledgement of tx's commit decision — a
// shard's acknowledgement means the commit is durably applied there — and
// discharges the decision at the last one.  A decision reloaded from the
// log is not counted.
func (l *Ledger) Ack(tx histories.TxID) {
	l.mu.Lock()
	n, ok := l.unacked[string(tx)]
	if n > 1 {
		l.unacked[string(tx)] = n - 1
	}
	l.mu.Unlock()
	if ok && n <= 1 {
		l.Discharge(tx)
	}
}

// Discharge retires tx's decision once every participant has applied it
// durably: no recovery can need it again.  The discharge record is
// buffered, not fsynced; losing it to a crash keeps a decision that is only
// garbage.  A cut it triggers that fails loses no live record: a failure
// before the seal poisons the log, so the next Record fails and its round
// aborts; a failed unlink leaves dead segments for the next cut.
func (l *Ledger) Discharge(tx histories.TxID) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.decisions[string(tx)]; !ok {
		return
	}
	delete(l.decisions, string(tx))
	delete(l.unacked, string(tx))
	if l.log == nil || l.log.Append(wal.Record{Kind: wal.KindDischarge, Tx: string(tx)}) != nil {
		return
	}
	if l.records++; l.deadLocked() {
		_ = l.cutLocked()
	}
}

// deadLocked reports whether the log's dead records call for a cut.
func (l *Ledger) deadLocked() bool {
	live := len(l.owners) + len(l.decisions)
	dead := l.records - live
	return dead > ledgerDeadRecords && dead > live
}

// cutLocked reclaims the log (see Ledger).  A Record whose append went
// below the cut has its decision in the live set.
func (l *Ledger) cutLocked() error {
	cut, err := l.log.Rotate()
	if err == nil {
		err = l.step("rotated")
	}
	for _, p := range l.owners {
		if err == nil {
			err = l.log.Append(wal.Record{Kind: wal.KindOwner, Tx: p})
		}
	}
	for tx, ts := range l.decisions {
		if err == nil {
			err = l.log.Append(wal.Record{Kind: wal.KindDecision, Tx: tx, TS: ts})
		}
	}
	if err == nil {
		err = l.step("appended")
	}
	if err == nil {
		_, err = l.log.Rotate() // the seal: flush and fsync
	}
	if err == nil {
		err = l.step("sealed")
	}
	if err != nil {
		return err
	}
	l.records = len(l.owners) + len(l.decisions)
	_, _, err = l.log.TruncateBelow(cut)
	return err
}

// Lookup reports the ledgered commit decision for tx, if any.
func (l *Ledger) Lookup(tx histories.TxID) (histories.Timestamp, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	ts, ok := l.decisions[string(tx)]
	return histories.Timestamp(ts), ok
}

// Owns reports whether some incarnation of this ledger minted tx
// ("T<prefix><n>" or "R<prefix><n>" for one of its owner prefixes).  Only
// owned branches may be presumed aborted.
func (l *Ledger) Owns(tx histories.TxID) bool {
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

// Decisions returns a copy of the undischarged decisions.
func (l *Ledger) Decisions() map[string]int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return maps.Clone(l.decisions)
}

// Close seals and closes the log; later Records fail.  An in-memory ledger
// closes as a no-op.
func (l *Ledger) Close() error {
	if l.log == nil {
		return nil
	}
	return l.log.Close()
}

// Crash drops the log's buffer and closes it, as a kill -9 would: a test
// hook for the crash suites.
func (l *Ledger) Crash() {
	if l.log != nil {
		l.log.Crash()
	}
}
