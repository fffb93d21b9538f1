// Package wal implements the durable write-ahead commit log behind
// core.Options.Durability: an append-only, segmented log of committed
// invocations plus the two-phase-commit bookkeeping records recovery
// needs.
//
// The paper defines hybrid atomicity over histories of committed
// operations, which makes durability unusually direct: logging exactly the
// committed invocations (with their commit timestamps) and replaying them
// through the serial specifications reconstructs every object's committed
// state, and replaying them in timestamp order reconstructs a serial
// history the verifier accepts.  Four record kinds cover the protocol:
//
//   - Commit: a transaction's commit — its timestamp and, per touched
//     object, the ground operation sequence (the intentions list the
//     runtime merged into the committed tail), plus, for cross-shard
//     transactions, the participant count that lets recovery detect a
//     shard log missing its leg;
//   - Prepared: a participant branch's yes vote in two-phase commit,
//     carrying the same per-object operation sequences (the branch's
//     in-memory intentions do not survive a crash, so the vote must);
//   - Abort: resolution of a prepared branch that did not commit —
//     recovery skips it without consulting any coordinator;
//   - Decision: the coordinator's commit decision (transaction and
//     timestamp), logged before phase 2 delivery.  Only commits are
//     logged — the presumed-abort rule: a prepared branch whose
//     coordinator log holds no decision record aborted.
//
// On disk, records are length-prefixed and CRC32C-checksummed frames
// (internal/codec, the format the checkpoints, the shard catalog and the
// wire share) in numbered segment files.  Appends are buffered; Sync
// flushes and (when the log is opened with Options.Sync) fsyncs.  One fsync
// covers every record appended before it started, which is how concurrent
// commitTx calls share fsyncs.  The reader tolerates a torn tail — a crash
// mid-append leaves a short or corrupt final frame, which truncation maps
// to "those transactions never committed" — but treats corruption anywhere
// before the tail as fatal.
// A write or fsync failure poisons the log (see Log): the failed record
// stays the stream's last, so the torn-tail rule keeps holding even when
// the disk, rather than the process, is what failed.
package wal

import (
	"encoding/binary"
	"fmt"
	"math"

	"hybridcc/internal/codec"
)

// Kind enumerates record kinds.
type Kind byte

// Record kinds; see the package comment for their roles.
const (
	KindCommit Kind = iota + 1
	KindPrepared
	KindAbort
	KindDecision
	// KindOwner registers a transaction-identifier prefix as owned by the
	// log's writer.  Client decision ledgers use it: each Dial salts its
	// transaction identifiers with a fresh random prefix, and the durable
	// ledger must remember every prefix it ever coordinated under, or a
	// restarted client could not tell its own crashed incarnation's
	// prepared branches (safe to presume abort) from another client's
	// (not its call to make).  Tx carries the prefix.
	KindOwner
	// KindDischarge retires a decision record: every participant has
	// durably applied the commit, so recovery will never need it again.
	// A discharged decision is dropped by Summarize and left behind by the
	// ledger's next cut, which is what keeps a long-lived ledger bounded.
	KindDischarge
)

// Ledger reports whether k belongs to a coordinator's decision ledger
// rather than to a shard's log.  Neither log may hold the other's records.
func (k Kind) Ledger() bool {
	return k == KindDecision || k == KindOwner || k == KindDischarge
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindCommit:
		return "commit"
	case KindPrepared:
		return "prepared"
	case KindAbort:
		return "abort"
	case KindDecision:
		return "decision"
	case KindOwner:
		return "owner"
	case KindDischarge:
		return "discharge"
	}
	return fmt.Sprintf("kind(%d)", byte(k))
}

// Op is one ground operation: invocation name, encoded argument, and the
// response the runtime granted.  It mirrors spec.Op without importing it —
// the log is below the spec layer and must stay decodable on its own.
type Op struct {
	Name string
	Arg  string
	Res  string
}

// ObjOps is a transaction's operation sequence at one object, in execution
// order (the order the intentions list merges into the committed tail).
type ObjOps struct {
	Obj string
	Ops []Op
}

// Record is one log record.  TS is meaningful for Commit and Decision
// records; Objs for Commit and Prepared records.
//
// Participants (Commit records only) is the number of sites the
// transaction committed on: a cross-shard transaction writes one commit
// record per shard log, each stamped with the full site count, so cluster
// recovery can count the legs it actually merged against the count each
// leg promises and detect a missing one (a shard log that lost its
// buffered tail with fsync off).  Zero means "unstamped" — a single-site
// commit, or a record re-logged by recovery resolution — and constrains
// nothing.
type Record struct {
	Kind         Kind
	Tx           string
	TS           int64
	Participants int
	Objs         []ObjOps
}

// maxPayload bounds a single record; anything larger in a length prefix
// marks the frame corrupt rather than an allocation request.
const maxPayload = 1 << 28

// encodePayload appends r's payload encoding (without framing) to buf.
func encodePayload(buf []byte, r Record) []byte {
	buf = append(buf, byte(r.Kind))
	buf = codec.AppendString(buf, r.Tx)
	switch r.Kind {
	case KindCommit, KindDecision:
		buf = binary.AppendUvarint(buf, uint64(r.TS))
	}
	if r.Kind == KindCommit {
		buf = binary.AppendUvarint(buf, uint64(r.Participants))
	}
	switch r.Kind {
	case KindCommit, KindPrepared:
		buf = binary.AppendUvarint(buf, uint64(len(r.Objs)))
		for _, oo := range r.Objs {
			buf = codec.AppendString(buf, oo.Obj)
			buf = binary.AppendUvarint(buf, uint64(len(oo.Ops)))
			for _, op := range oo.Ops {
				buf = codec.AppendString(buf, op.Name)
				buf = codec.AppendString(buf, op.Arg)
				buf = codec.AppendString(buf, op.Res)
			}
		}
	}
	return buf
}

// decodePayload decodes one payload into a Record.
func decodePayload(buf []byte) (Record, error) {
	d := codec.NewDecoder("wal", buf)
	var r Record
	r.Kind = Kind(d.Byte())
	switch r.Kind {
	case KindCommit, KindPrepared, KindAbort, KindDecision, KindOwner, KindDischarge:
	default:
		return r, fmt.Errorf("wal: unknown record kind %d", byte(r.Kind))
	}
	r.Tx = d.Str()
	switch r.Kind {
	case KindCommit, KindDecision:
		r.TS = int64(bounded(&d, math.MaxInt64, "timestamp"))
	}
	if r.Kind == KindCommit {
		r.Participants = int(bounded(&d, maxPayload, "participant count"))
	}
	switch r.Kind {
	case KindCommit, KindPrepared:
		nObjs := d.Count("object")
		for i := 0; i < nObjs && d.Err() == nil; i++ {
			oo := ObjOps{Obj: d.Str()}
			nOps := d.Count("op")
			for j := 0; j < nOps && d.Err() == nil; j++ {
				oo.Ops = append(oo.Ops, Op{Name: d.Str(), Arg: d.Str(), Res: d.Str()})
			}
			r.Objs = append(r.Objs, oo)
		}
	}
	return r, d.Done()
}

// bounded reads a uvarint no greater than limit: an int64 field (a
// timestamp, a fold frontier, a clock, a cut) that must not wrap negative,
// or a participant count, which the record limit bounds, not the payload:
// a leg with no operations at this site is short and counts every site.
func bounded(d *codec.Decoder, limit uint64, what string) uint64 {
	n := d.Uvarint()
	if n > limit {
		d.Fail("%s %d exceeds %d", what, n, limit)
	}
	return n
}

// Summary is the recovery-relevant digest of a record stream: which
// transactions committed (with their operations and timestamps), which
// prepared branches are still undecided, and which coordinator decisions
// were logged.
type Summary struct {
	// Committed holds one commit record per committed transaction, in log
	// order; duplicates (a decision re-applied across restarts) keep the
	// first record.
	Committed []Record
	// Pending holds prepared records with no commit or abort resolution —
	// the branches recovery must resolve from decision records or presume
	// aborted.
	Pending []Record
	// Decisions maps transaction id to the committed decision timestamp
	// (coordinator logs only; presumed abort means absence is an abort).
	// Discharged decisions — retired by a later KindDischarge record —
	// are excluded: every participant durably applied them, so recovery
	// has no use for them.
	Decisions map[string]int64
	// Owners lists the transaction-identifier prefixes registered by
	// KindOwner records, in first-appearance order, deduplicated.
	Owners []string
	// Aborts counts abort records (resolved prepared branches).
	Aborts int
	// Discharged counts decisions retired by discharge records — the
	// garbage the ledger's next cut leaves behind.
	Discharged int
}

// Summarize folds a record stream read from one log directory.
func Summarize(recs []Record) Summary {
	s := Summary{Decisions: make(map[string]int64)}
	committed := make(map[string]bool)
	owners := make(map[string]bool)
	pending := make(map[string]int) // tx -> index into s.Pending, -1 when resolved
	for _, r := range recs {
		switch r.Kind {
		case KindCommit:
			if committed[r.Tx] {
				continue
			}
			committed[r.Tx] = true
			s.Committed = append(s.Committed, r)
			if i, ok := pending[r.Tx]; ok && i >= 0 {
				s.Pending[i].Tx = "" // tombstone, compacted below
				pending[r.Tx] = -1
			}
		case KindPrepared:
			if committed[r.Tx] {
				continue
			}
			if _, ok := pending[r.Tx]; ok {
				continue // Prepare is idempotent; keep the first record.
			}
			pending[r.Tx] = len(s.Pending)
			s.Pending = append(s.Pending, r)
		case KindAbort:
			s.Aborts++
			if i, ok := pending[r.Tx]; ok && i >= 0 {
				s.Pending[i].Tx = ""
				pending[r.Tx] = -1
			}
		case KindDecision:
			s.Decisions[r.Tx] = r.TS
		case KindOwner:
			if !owners[r.Tx] {
				owners[r.Tx] = true
				s.Owners = append(s.Owners, r.Tx)
			}
		case KindDischarge:
			if _, ok := s.Decisions[r.Tx]; ok {
				delete(s.Decisions, r.Tx)
				s.Discharged++
			}
		}
	}
	// Compact tombstoned pending entries.
	out := s.Pending[:0]
	for _, r := range s.Pending {
		if r.Tx != "" {
			out = append(out, r)
		}
	}
	s.Pending = out
	return s
}
