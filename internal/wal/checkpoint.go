package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"

	"hybridcc/internal/codec"
)

// A Checkpoint is a durable image of a log's committed state at a cut:
// per object, the fold of every committed entry below a per-object folded
// horizon (a DurableState encoding when the spec supports it, a compacted
// committed-operations image otherwise) plus the entries at or above it,
// and the prepared-but-undecided branches that survive the cut.  Recovery
// seeds each object from its image and replays only the entries above the
// horizon plus the log tail, so restart cost is bounded by activity since
// the checkpoint, not by history; the segments sealed below the
// checkpoint's cut are unlinked after it is published (Log.TruncateBelow).
//
// On disk a checkpoint is a single checkpoint-<cut>.ckpt file in the log
// directory, framed like the segments (internal/codec), ending in a
// footer frame that proves completeness: a torn or CRC-bad checkpoint is
// ignored (recovery falls back to an older checkpoint or full replay),
// never trusted and never fatal.
type Checkpoint struct {
	// CutTS is the largest per-object commit clock at snapshot time —
	// recovery observes it so freshly minted timestamps stay ahead even
	// when the records carrying the old ones were truncated.
	CutTS int64
	// MaxSeq is the largest runtime-minted transaction sequence number at
	// snapshot time; recovery must mint identifiers above it even when
	// the records that used them are gone.
	MaxSeq uint64
	// Objects holds one image per registered object.
	Objects []CheckpointObject
	// Pending holds the prepared-but-undecided branch records surviving
	// at the cut: their segment copies are truncatable because the
	// checkpoint carries them.
	Pending []Record

	// Name is the file this checkpoint was loaded from (LoadCheckpoint
	// sets it; WriteCheckpoint returns it).  Not encoded.
	Name string
}

// CheckpointEntry is one committed transaction's leg at one object:
// exactly the (tx, ts, ops) triple a committed-tail entry or a commit
// record's leg carries, plus the participant stamp so cluster recovery
// can keep counting legs after the record itself is truncated.
type CheckpointEntry struct {
	Tx           string
	TS           int64
	Participants int
	Ops          []Op
}

// CheckpointObject is one object's durable image.
type CheckpointObject struct {
	Name string
	// Folded is the object's fold horizon: every committed entry with
	// ts < Folded is inside the image, every entry with ts >= Folded is
	// in Unforgotten.  No future commit at the object can land below
	// Folded (the engine only advances it below every active bound).
	Folded int64
	// Clock is the object's commit clock at snapshot time; recovery
	// restores it so grant bounds stay correct with an empty tail.
	Clock int64
	// HasState reports that State holds the spec's DurableState encoding
	// of the folded image; otherwise ImageOps is the fallback image.
	HasState bool
	State    []byte
	// ImageOps is the committed-operations fallback for specs without
	// DurableState: every committed leg with ts < Folded, in timestamp
	// order, replayed from the spec's initial state at recovery.
	ImageOps []CheckpointEntry
	// Unforgotten are the committed legs with ts >= Folded at snapshot
	// time, replayed at recovery exactly like surviving commit records
	// (and deduplicated against them by transaction identifier).
	Unforgotten []CheckpointEntry
}

// Checkpoint frame kinds.  Disjoint from record kinds only by context —
// checkpoint frames never share a file with segment frames.
const (
	ckptFrameHeader  = 0x10
	ckptFrameObject  = 0x11
	ckptFramePending = 0x12
	ckptFrameFooter  = 0x13
)

// ckptVersion is the checkpoint format version.
const ckptVersion = 1

// checkpointPrefix/checkpointSuffix frame the file name:
// checkpoint-<cut>.ckpt, with the cut zero-padded so lexicographic order
// is cut order.
const (
	checkpointPrefix = "checkpoint-"
	checkpointSuffix = ".ckpt"
	checkpointTmpExt = ".tmp"
)

// CheckpointName formats the checkpoint file name for a cut timestamp.
func CheckpointName(cutTS int64) string {
	return fmt.Sprintf("%s%016d%s", checkpointPrefix, cutTS, checkpointSuffix)
}

// checkpointCut parses a checkpoint file name's cut timestamp.
func checkpointCut(name string) (int64, bool) {
	s, ok := strings.CutPrefix(name, checkpointPrefix)
	if !ok {
		return 0, false
	}
	s, ok = strings.CutSuffix(s, checkpointSuffix)
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// CheckpointFailpoint, when non-nil, is consulted before each stage of
// checkpoint publication and truncation ("create", "write", "sync",
// "rename", "retire", "truncate").  Returning an error injects it (the
// attempt aborts and cleans up its temporary file); returning an error
// wrapping ErrCheckpointCrash aborts with NO cleanup, leaving the
// directory exactly as a kill -9 at that instant would.  Tests only.
var CheckpointFailpoint func(stage string) error

// ErrCheckpointCrash is the failpoint sentinel that simulates process
// death mid-checkpoint: the attempt stops where it stands, cleaning
// nothing, so crash-window tests can recover the exact on-disk state.
var ErrCheckpointCrash = errors.New("wal: simulated crash during checkpoint")

func ckptFail(stage string) error {
	if CheckpointFailpoint == nil {
		return nil
	}
	return CheckpointFailpoint(stage)
}

// appendCkptEntry encodes one CheckpointEntry.
func appendCkptEntry(buf []byte, e CheckpointEntry) []byte {
	buf = codec.AppendString(buf, e.Tx)
	buf = binary.AppendUvarint(buf, uint64(e.TS))
	buf = binary.AppendUvarint(buf, uint64(e.Participants))
	buf = binary.AppendUvarint(buf, uint64(len(e.Ops)))
	for _, op := range e.Ops {
		buf = codec.AppendString(buf, op.Name)
		buf = codec.AppendString(buf, op.Arg)
		buf = codec.AppendString(buf, op.Res)
	}
	return buf
}

func decodeCkptEntry(d *codec.Decoder) CheckpointEntry {
	var e CheckpointEntry
	e.Tx = d.Str()
	e.TS = int64(bounded(d, math.MaxInt64, "timestamp"))
	e.Participants = int(bounded(d, maxPayload, "participant count"))
	n := d.Count("checkpoint op")
	for i := 0; i < n && d.Err() == nil; i++ {
		e.Ops = append(e.Ops, Op{Name: d.Str(), Arg: d.Str(), Res: d.Str()})
	}
	return e
}

// encodeCheckpoint renders ck as a complete checkpoint file image.
func encodeCheckpoint(ck *Checkpoint) []byte {
	var file, buf []byte
	buf = append(buf[:0], ckptFrameHeader, ckptVersion)
	buf = binary.AppendUvarint(buf, uint64(ck.CutTS))
	buf = binary.AppendUvarint(buf, ck.MaxSeq)
	buf = binary.AppendUvarint(buf, uint64(len(ck.Objects)))
	buf = binary.AppendUvarint(buf, uint64(len(ck.Pending)))
	file = codec.AppendFrame(file, buf)

	for _, o := range ck.Objects {
		buf = append(buf[:0], ckptFrameObject)
		buf = codec.AppendString(buf, o.Name)
		buf = binary.AppendUvarint(buf, uint64(o.Folded))
		buf = binary.AppendUvarint(buf, uint64(o.Clock))
		if o.HasState {
			buf = append(buf, 1)
			buf = binary.AppendUvarint(buf, uint64(len(o.State)))
			buf = append(buf, o.State...)
		} else {
			buf = append(buf, 0)
			buf = binary.AppendUvarint(buf, uint64(len(o.ImageOps)))
			for _, e := range o.ImageOps {
				buf = appendCkptEntry(buf, e)
			}
		}
		buf = binary.AppendUvarint(buf, uint64(len(o.Unforgotten)))
		for _, e := range o.Unforgotten {
			buf = appendCkptEntry(buf, e)
		}
		file = codec.AppendFrame(file, buf)
	}

	for _, r := range ck.Pending {
		buf = append(buf[:0], ckptFramePending)
		buf = encodePayload(buf, r)
		file = codec.AppendFrame(file, buf)
	}

	buf = append(buf[:0], ckptFrameFooter)
	buf = binary.AppendUvarint(buf, uint64(1+len(ck.Objects)+len(ck.Pending)))
	buf = binary.AppendUvarint(buf, uint64(len(ck.Objects)))
	buf = binary.AppendUvarint(buf, uint64(len(ck.Pending)))
	return codec.AppendFrame(file, buf)
}

// decodeCkptObject parses one object frame's payload.
func decodeCkptObject(payload []byte) (CheckpointObject, error) {
	d := codec.NewDecoder("wal", payload)
	var o CheckpointObject
	if k := d.Byte(); k != ckptFrameObject {
		return o, fmt.Errorf("wal: checkpoint object frame kind %#x", k)
	}
	o.Name = d.Str()
	o.Folded = int64(bounded(&d, math.MaxInt64, "fold frontier"))
	o.Clock = int64(bounded(&d, math.MaxInt64, "clock"))
	if d.Byte() == 1 {
		o.HasState = true
		o.State = d.Bytes("checkpoint state")
	} else {
		n := d.Count("checkpoint image")
		for j := 0; j < n && d.Err() == nil; j++ {
			o.ImageOps = append(o.ImageOps, decodeCkptEntry(&d))
		}
	}
	n := d.Count("checkpoint unforgotten")
	for j := 0; j < n && d.Err() == nil; j++ {
		o.Unforgotten = append(o.Unforgotten, decodeCkptEntry(&d))
	}
	return o, d.Done()
}

// decodeCheckpoint parses a checkpoint file image, failing on any framing,
// CRC, structural, or completeness violation — the caller treats every
// failure identically (the checkpoint is ignored).
func decodeCheckpoint(data []byte) (*Checkpoint, error) {
	var payloads [][]byte
	for off := 0; off < len(data); {
		payload, size, reason := codec.Next(data[off:], maxPayload)
		if reason != "" {
			return nil, fmt.Errorf("wal: checkpoint torn: %s", reason)
		}
		payloads = append(payloads, payload)
		off += size
	}
	if len(payloads) < 2 {
		return nil, fmt.Errorf("wal: checkpoint torn: %d frames", len(payloads))
	}

	hd := codec.NewDecoder("wal", payloads[0])
	if k := hd.Byte(); k != ckptFrameHeader {
		return nil, fmt.Errorf("wal: checkpoint header frame kind %#x", k)
	}
	if v := hd.Byte(); v != ckptVersion {
		return nil, fmt.Errorf("wal: checkpoint format version %d, want %d", v, ckptVersion)
	}
	ck := &Checkpoint{}
	ck.CutTS = int64(bounded(&hd, math.MaxInt64, "cut"))
	ck.MaxSeq = hd.Uvarint()
	nObjs := hd.Uvarint()
	nPending := hd.Uvarint()
	if err := hd.Err(); err != nil {
		return nil, err
	}
	// Each count is bounded by the frames present before the sum, which
	// would otherwise wrap and pass the check.
	if n := uint64(len(payloads)); nObjs > n || nPending > n || 2+nObjs+nPending != n {
		return nil, fmt.Errorf("wal: checkpoint torn: %d frames, header counts %d objects and %d pending", n, nObjs, nPending)
	}

	for i := uint64(0); i < nObjs; i++ {
		o, err := decodeCkptObject(payloads[1+i])
		if err != nil {
			return nil, err
		}
		ck.Objects = append(ck.Objects, o)
	}

	for i := uint64(0); i < nPending; i++ {
		payload := payloads[1+nObjs+i]
		if len(payload) < 1 || payload[0] != ckptFramePending {
			return nil, fmt.Errorf("wal: checkpoint pending frame malformed")
		}
		r, err := decodePayload(payload[1:])
		if err != nil {
			return nil, err
		}
		ck.Pending = append(ck.Pending, r)
	}

	fd := codec.NewDecoder("wal", payloads[len(payloads)-1])
	if k := fd.Byte(); k != ckptFrameFooter {
		return nil, fmt.Errorf("wal: checkpoint torn: no footer frame")
	}
	if n := fd.Uvarint(); fd.Err() != nil || n != uint64(len(payloads)-1) {
		return nil, fmt.Errorf("wal: checkpoint footer frame count mismatch")
	}
	if n := fd.Uvarint(); fd.Err() != nil || n != nObjs {
		return nil, fmt.Errorf("wal: checkpoint footer object count mismatch")
	}
	if n := fd.Uvarint(); fd.Err() != nil || n != nPending {
		return nil, fmt.Errorf("wal: checkpoint footer pending count mismatch")
	}
	return ck, nil
}

// WriteCheckpoint publishes ck in dir crash-safely: the encoding is
// written and fsynced to checkpoint-<cut>.ckpt.tmp, renamed into place
// (atomic on POSIX), the directory fsynced, and only then the previous
// checkpoint file retired.  A crash in any window leaves a directory
// LoadCheckpoint settles: a stale .tmp is ignored, two published
// checkpoints resolve to the newer, and segment truncation happens only
// after WriteCheckpoint returns — so every window recovers from what is
// still on disk.  Any failure abandons the attempt (removing the
// temporary file) without touching the log.
func WriteCheckpoint(dir string, ck *Checkpoint) (name string, err error) {
	final := CheckpointName(ck.CutTS)
	tmp := final + checkpointTmpExt
	tmpPath := filepath.Join(dir, tmp)
	cleanup := true
	defer func() {
		if err != nil && cleanup {
			_ = os.Remove(tmpPath)
		}
	}()

	if err := ckptFail("create"); err != nil {
		cleanup = !errors.Is(err, ErrCheckpointCrash)
		return "", err
	}
	f, err := os.OpenFile(tmpPath, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return "", fmt.Errorf("wal: checkpoint: %w", err)
	}
	if err := ckptFail("write"); err != nil {
		_ = f.Close()
		cleanup = !errors.Is(err, ErrCheckpointCrash)
		return "", err
	}
	if _, err := f.Write(encodeCheckpoint(ck)); err != nil {
		_ = f.Close()
		return "", fmt.Errorf("wal: checkpoint: %w", err)
	}
	if err := ckptFail("sync"); err != nil {
		_ = f.Close()
		cleanup = !errors.Is(err, ErrCheckpointCrash)
		return "", err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return "", fmt.Errorf("wal: checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("wal: checkpoint: %w", err)
	}

	if err := ckptFail("rename"); err != nil {
		cleanup = !errors.Is(err, ErrCheckpointCrash)
		return "", err
	}
	if err := os.Rename(tmpPath, filepath.Join(dir, final)); err != nil {
		return "", fmt.Errorf("wal: checkpoint: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return "", err
	}

	// Retire superseded checkpoint files.  A failure here is harmless —
	// the new checkpoint is already published and LoadCheckpoint prefers
	// it — so errors (and the injected crash) only stop the cleanup.
	if err := ckptFail("retire"); err != nil {
		cleanup = false
		if errors.Is(err, ErrCheckpointCrash) {
			return "", err
		}
		return final, nil
	}
	if names, err := checkpointFiles(dir); err == nil {
		for _, n := range names {
			if n < final { // zero-padded cut: lexicographic == numeric
				_ = os.Remove(filepath.Join(dir, n))
			}
		}
		_ = syncDir(dir)
	}
	return final, nil
}

// syncDir fsyncs a directory so renames and unlinks within it survive a
// crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

// checkpointFiles lists the published checkpoint files in dir, oldest
// first (cut order).
func checkpointFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if _, ok := checkpointCut(e.Name()); ok {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names) // zero-padded cut: lexicographic == numeric
	return names, nil
}

// SettleCheckpoints cleans up after a crash mid-publication: stale
// temporary files are removed (truncation never ran off an unpublished
// checkpoint, so they are never needed) and, when two published
// checkpoints coexist (crash between the rename and the retire), every
// one older than the newest valid checkpoint is retired.  Invalid
// published files are left in place — LoadCheckpoint skips them, and
// removing evidence of corruption helps no one.  Open calls this.
func SettleCheckpoints(dir string) error {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), checkpointSuffix+checkpointTmpExt) {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				return fmt.Errorf("wal: %w", err)
			}
		}
	}
	names, err := checkpointFiles(dir)
	if err != nil || len(names) < 2 {
		return err
	}
	newestValid := ""
	for i := len(names) - 1; i >= 0; i-- {
		if _, err := readCheckpointFile(dir, names[i]); err == nil {
			newestValid = names[i]
			break
		}
	}
	if newestValid == "" {
		return nil
	}
	for _, n := range names {
		if n < newestValid {
			if err := os.Remove(filepath.Join(dir, n)); err != nil {
				return fmt.Errorf("wal: %w", err)
			}
		}
	}
	return syncDir(dir)
}

// CheckpointFiles lists the published checkpoint files in dir, oldest
// first — every candidate, valid or not; LoadCheckpoint surfaces only the
// newest valid one.  Inspection tools report the rest.
func CheckpointFiles(dir string) ([]string, error) { return checkpointFiles(dir) }

// ReadCheckpointFile decodes one published checkpoint file, validating
// every frame's CRC; a torn or corrupt file errors.  Inspection tools use
// it to report each candidate's validity.
func ReadCheckpointFile(dir, name string) (*Checkpoint, error) {
	return readCheckpointFile(dir, name)
}

// readCheckpointFile loads and decodes one checkpoint file.
func readCheckpointFile(dir, name string) (*Checkpoint, error) {
	FileReads.Add(1)
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	ck, err := decodeCheckpoint(data)
	if err != nil {
		return nil, err
	}
	ck.Name = name
	return ck, nil
}

// LoadCheckpoint returns the newest valid checkpoint in dir, or nil if
// none exists.  Torn or CRC-bad candidates are skipped, falling back to
// the next-newest — recovery must never refuse a directory that
// replay-from-zero could have served, so an unreadable checkpoint
// degrades to whatever older evidence remains.
func LoadCheckpoint(dir string) (*Checkpoint, error) {
	names, err := checkpointFiles(dir)
	if err != nil {
		return nil, err
	}
	for i := len(names) - 1; i >= 0; i-- {
		if ck, err := readCheckpointFile(dir, names[i]); err == nil {
			return ck, nil
		}
	}
	return nil, nil
}

// ckptIndex is the coverage lookup built from a checkpoint: per object,
// the fold horizon and the unforgotten transaction set.
type ckptIndex struct {
	objs map[string]*ckptObjIndex
}

type ckptObjIndex struct {
	folded int64
	txs    map[string]bool
}

func (ck *Checkpoint) index() *ckptIndex {
	ix := &ckptIndex{objs: make(map[string]*ckptObjIndex, len(ck.Objects))}
	for _, o := range ck.Objects {
		oi := &ckptObjIndex{folded: o.Folded, txs: make(map[string]bool, len(o.Unforgotten))}
		for _, e := range o.Unforgotten {
			oi.txs[e.Tx] = true
		}
		ix.objs[o.Name] = oi
	}
	return ix
}

// covers reports whether r is fully captured by the checkpoint — deleting
// r's segment loses nothing recovery needs.
//
//   - Commit: every leg's object must be in the checkpoint with the leg
//     either folded into the image (ts below the object's horizon) or
//     present in its unforgotten set.
//   - Prepared: always — an unresolved branch is carried in Pending, a
//     resolved one needs no prepared record (commit records are
//     self-contained; absence of a decision is already an abort).
//   - Abort: always — it only resolves a prepared record, and the
//     checkpoint's Pending set was computed after that resolution.
//   - Anything else (decision, owner, discharge — coordinator-ledger
//     kinds that never appear in shard logs): never, conservatively.
func (ix *ckptIndex) covers(r Record) bool {
	if r.Kind != KindCommit {
		return !r.Kind.Ledger()
	}
	for _, oo := range r.Objs {
		oi := ix.objs[oo.Obj]
		if oi == nil {
			return false
		}
		if r.TS >= oi.folded && !oi.txs[r.Tx] {
			return false
		}
	}
	return true
}

// CoveredSegments returns the sealed segments (index below the given
// bound) whose every record ck covers — the segments recovery could lose
// without losing anything ck does not hold.  Truncation does not consult it
// (the checkpointer unlinks by its cut, reading nothing); inspection tools
// report it, and tests hold truncation to it.  A torn segment is never
// covered.
func CoveredSegments(dir string, below int, ck *Checkpoint) ([]SegmentInfo, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	ix := ck.index()
	var covered []SegmentInfo
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasPrefix(e.Name(), "wal-") && strings.HasSuffix(e.Name(), ".seg") {
			names = append(names, e.Name())
		}
	}
	sort.Slice(names, func(i, j int) bool { return segmentIndex(names[i]) < segmentIndex(names[j]) })
	for _, name := range names {
		if segmentIndex(name) >= below {
			continue
		}
		info, recs, err := readSegment(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		info.Name = name
		if info.Torn {
			continue
		}
		ok := true
		for _, r := range recs {
			if !ix.covers(r) {
				ok = false
				break
			}
		}
		if ok {
			covered = append(covered, info)
		}
	}
	return covered, nil
}

// TruncateBelow unlinks every sealed segment with index below the given
// bound and returns the bytes reclaimed and the number of segments
// removed.  It reads no segment: the caller vouches that every live record
// below the cut is carried above it — by a published checkpoint on a
// shard's log, by the live set a ledger rewrote above the cut on a
// decision ledger's.  The bound must be the index Rotate returned at the
// cut, not the current live index: segments sealed after the cut hold
// records the cut never saw.
func (l *Log) TruncateBelow(below int) (reclaimed int64, removed int, err error) {
	l.mu.Lock()
	var doomed []sealedSeg
	for _, s := range l.sealed {
		if s.index < below {
			doomed = append(doomed, s)
		}
	}
	l.mu.Unlock()
	if len(doomed) == 0 {
		return 0, 0, nil
	}
	if err := ckptFail("truncate"); err != nil {
		return 0, 0, err
	}
	for _, s := range doomed {
		if err = os.Remove(filepath.Join(l.dir, segmentName(s.index))); err != nil {
			err = fmt.Errorf("wal: %w", err)
			break
		}
		reclaimed += s.size
		removed++
	}
	if removed > 0 {
		last := doomed[removed-1].index
		l.mu.Lock()
		l.sealed = slices.DeleteFunc(l.sealed, func(s sealedSeg) bool { return s.index <= last })
		l.mu.Unlock()
	}
	if err == nil {
		err = syncDir(l.dir)
	}
	return reclaimed, removed, err
}
