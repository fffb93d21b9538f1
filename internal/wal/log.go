package wal

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"hybridcc/internal/codec"
)

// ErrClosed reports an append or sync on a closed (or crashed) log.
var ErrClosed = errors.New("wal: log closed")

// ErrFailed reports an append or sync on a log poisoned by an earlier
// write, fsync, or rotation failure.  It wraps ErrClosed, so callers that
// only check for ErrClosed treat a poisoned log as closed.
var ErrFailed = fmt.Errorf("%w after write failure", ErrClosed)

// ErrLocked reports an Open of a log directory another Log (possibly in
// another process) already holds open.  The error text names the holder
// recorded in the directory's LOCK file ("pid N on host").  Two live logs
// on one directory would interleave appends and fight over the torn tail,
// so Open refuses rather than corrupting.
var ErrLocked = errors.New("wal: log directory locked")

// DefaultSegmentSize is the rotation threshold when Options.SegmentSize is
// zero.
const DefaultSegmentSize = 64 << 20

// appendBufferSize sizes the per-segment write buffer.  Large enough that
// a no-fsync log rarely syscalls per commit; a crash (process death) loses
// at most this much of the unflushed tail, which torn-tail recovery maps
// to "those transactions aborted".
const appendBufferSize = 256 << 10

// zeroChunk is how far ahead of the append offset a Sync log zero-fills its
// live segment.  Appends then overwrite allocated zeros and never change
// the file size, so the fsync that acknowledges them flushes data and no
// size change — on ext4 a size change also forces a journal commit, most of
// the fsync's cost.
const zeroChunk = 256 << 10

// zeros is the source of every zero-fill write.
var zeros [zeroChunk]byte

// Options configures a Log.
type Options struct {
	// Sync makes Sync fsync the current segment (durable against machine
	// crash).  Off, appends are buffered in-process and flushed on
	// rotation and Close only: a process crash loses the buffered tail.
	Sync bool
	// SegmentSize is the rotation threshold; zero means
	// DefaultSegmentSize.
	SegmentSize int64
}

// Stats counts a Log's work.
type Stats struct {
	// Appends counts records appended; Fsyncs counts fsyncs actually
	// issued, below Appends when concurrent appenders share one.  Segments
	// is the current segment count.
	Appends  int64
	Fsyncs   int64
	Segments int
	// Bytes counts record bytes appended over the log's lifetime (monotone
	// — truncation does not rewind it).  The checkpoint trigger's
	// bytes-since-last-checkpoint measure subtracts two readings of it.
	Bytes int64
}

// Log is a segmented append-only record log.  It is safe for concurrent
// use.  Appends serialize on one mutex (records of one batch stay
// contiguous); becoming durable is a separate wait for the durability
// horizon to pass the caller's last byte.  At most one waiter at a time is
// the syncer: it flushes and notes the appended offset under the mutex,
// fsyncs with the mutex RELEASED — appends overlap the fsync — then
// publishes the offset as the new horizon.  One fsync so acknowledges
// every record appended before it started, and a waiter it covers issues
// none of its own.
//
// Any write, fsync, or rotation failure POISONS the log: every later
// Append or Sync fails with an error wrapping ErrClosed (ErrFailed), and so
// does every waiter above the horizon.  The commit paths depend on this — a
// failed append or fsync leaves the disk state unknown (the window of
// records past the horizon may or may not have reached the platter; bufio
// only poisons its own buffer on flush errors, not on fsync errors), so if
// later commits kept appending valid frames after it, recovery would
// replay a transaction its client was told aborted, alongside transactions
// that observed its locks released.  Poisoning makes the failed window the
// log's last records: none of it was acknowledged, whatever of it survived
// is at the recoverable tail, and no acknowledged commit ever follows an
// unacknowledged one.
//
// The fsync handshake moves the log through five states (mu guards all):
//
//	state      syncing  sealers  who may act
//	Idle       false    0        appenders; a waiter below the lsn becomes the syncer
//	Syncing    true     0        appenders (mu released across the fsync); waiters wait
//	Quiescing  true     > 0      a Rotate/Close/Crash in quiesceLocked waits the fsync out
//	Sealing    false    0        the sealer alone, holding mu throughout: it swaps or closes f
//	Closed     any      any      nobody (closed): Append and Sync fail, ErrFailed if poisoned
//
//	Idle → Syncing       syncLocked starts an fsync (only when sealers == 0)
//	Syncing → Idle       the fsync returns; the horizon advances
//	Syncing → Quiescing  quiesceLocked: sealers++
//	Quiescing → Sealing  the fsync returns; the sealer wakes on cond
//	Idle → Sealing       a rotation under mu, or Rotate/Close/Crash with no fsync in flight
//	Sealing → Idle       the next segment is open
//	any → Closed         Close, Crash, or poisoning (a syncer still in flight closes f)
//
// In Sync mode the live segment is zero-filled ahead of the append offset:
// segSize ≤ zeroed == the file's length (no buffered byte lies beyond
// zeroed).  Sealing truncates the zeros away, so a sealed segment has
// zeroed == segSize == its length.  Sync off writes no zeros.
type Log struct {
	dir  string
	opts Options
	// lock is the exclusive flock on dir/LOCK (nil where flock is
	// unsupported), held from Open until Close, Crash, or poisoning so a
	// second Open — same process or another — fails with ErrLocked.
	lock *os.File

	mu       sync.Mutex
	f        *os.File
	w        *bufio.Writer
	segIndex int
	segSize  int64
	zeroed   int64 // allocated, zero-filled length of the live segment
	// sealed lists the sealed segments on disk, oldest first.
	sealed []sealedSeg
	closed bool
	failed error
	enc    []byte
	// The durability horizon: bytes (below) counts what is appended,
	// durable what an fsync has covered.  syncing marks the one fsync in
	// flight outside mu; nothing closes or swaps f under it.  sealers
	// counts Rotate/Close/Crash callers waiting it out — no new fsync
	// starts while one waits.  cond (on mu) signals every change of these.
	durable int64
	syncing bool
	sealers int
	cond    sync.Cond
	// syncFile is (*os.File).Sync; tests replace it to hold or fail an fsync.
	syncFile func(*os.File) error

	appends atomic.Int64
	fsyncs  atomic.Int64
	bytes   atomic.Int64
}

// sealedSeg is one sealed segment.
type sealedSeg struct {
	index int
	size  int64
}

// segmentName formats the segment file name for index i.
func segmentName(i int) string { return fmt.Sprintf("wal-%08d.seg", i) }

// Open opens (creating if needed) the log directory, repairs a torn tail,
// and returns the log positioned for appending plus every record that
// survived.  A torn final segment is truncated at its last valid frame —
// the crash-recovery contract: a frame that never fully reached the disk
// is a transaction that never committed.  Corruption anywhere else
// (a torn segment followed by further segments) is not a tail and is
// returned as an error rather than silently dropped.
//
// Open holds an exclusive flock on dir/LOCK until the log is closed,
// crashed, or poisoned: a second Open of the same directory — from this
// process or another — fails with an error wrapping ErrLocked that names
// the holder.
func Open(dir string, opts Options) (*Log, []Record, error) {
	if opts.SegmentSize <= 0 {
		opts.SegmentSize = DefaultSegmentSize
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	lock, err := lockDir(dir)
	if err != nil {
		return nil, nil, err
	}
	// Settle any checkpoint publication a crash interrupted (stale .tmp,
	// superseded older checkpoints) before reading the directory.
	if err := SettleCheckpoints(dir); err != nil {
		unlockDir(lock)
		return nil, nil, err
	}
	l, recs, err := openDir(dir, opts)
	if err != nil {
		unlockDir(lock)
		return nil, nil, err
	}
	l.lock = lock
	return l, recs, nil
}

// openDir is Open past directory creation and locking: read and repair
// the segments, position the log for appending.
func openDir(dir string, opts Options) (*Log, []Record, error) {
	recs, segs, err := ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for i, s := range segs {
		if s.Torn && i != len(segs)-1 {
			return nil, nil, fmt.Errorf("wal: segment %s is corrupt at byte %d but later segments exist — not a torn tail", s.Name, s.GoodBytes)
		}
	}
	l := &Log{dir: dir, opts: opts, syncFile: (*os.File).Sync}
	l.cond.L = &l.mu
	if len(segs) == 0 {
		if err := l.createSegmentLocked(1); err != nil {
			return nil, nil, err
		}
		return l, recs, nil
	}
	for _, s := range segs[:len(segs)-1] {
		l.sealed = append(l.sealed, sealedSeg{index: segmentIndex(s.Name), size: s.Size})
	}
	last := segs[len(segs)-1]
	l.segIndex = segmentIndex(last.Name)
	f, err := os.OpenFile(filepath.Join(dir, last.Name), os.O_RDWR, 0)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	// A clean zero tail (preallocated by the crashed log) is kept: appends
	// overwrite it.  A torn tail is cut, and the file ends at GoodBytes.
	l.zeroed = last.Size
	if last.Torn {
		if err := f.Truncate(last.GoodBytes); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: truncating torn tail of %s: %w", last.Name, err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: %w", err)
		}
		l.zeroed = last.GoodBytes
	}
	if _, err := f.Seek(last.GoodBytes, 0); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	l.f = f
	l.w = bufio.NewWriterSize(f, appendBufferSize)
	l.segSize = last.GoodBytes
	return l, recs, nil
}

// createSegmentLocked creates and opens segment index (which must not
// exist) and fsyncs the directory so the file itself survives a crash.
func (l *Log) createSegmentLocked(index int) error {
	name := filepath.Join(l.dir, segmentName(index))
	f, err := os.OpenFile(name, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	d, err := os.Open(l.dir)
	if err == nil {
		err = l.syncFile(d)
		_ = d.Close()
	}
	if err != nil {
		_ = f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	l.f = f
	l.w = bufio.NewWriterSize(f, appendBufferSize)
	l.segIndex = index
	l.segSize = 0
	l.zeroed = 0
	return nil
}

// poisonLocked marks the log permanently failed: err left the on-disk
// state unknown, so the log refuses every further append and sync (see the
// Log doc comment).  The file handle is closed best-effort (by the syncer,
// if its fsync is running on it); Close becomes a no-op.  Returns err
// wrapped, with ErrFailed, for the caller to propagate.
func (l *Log) poisonLocked(err error) error {
	if l.failed == nil {
		l.failed = err
		l.closed = true
		if l.f != nil && !l.syncing {
			_ = l.f.Close()
		}
		unlockDir(l.lock)
		l.lock = nil
	}
	return fmt.Errorf("%w: %w", ErrFailed, err)
}

// closedErrLocked distinguishes a cleanly closed log from a poisoned one.
func (l *Log) closedErrLocked() error {
	if l.failed != nil {
		return fmt.Errorf("%w: %v", ErrFailed, l.failed)
	}
	return ErrClosed
}

// Append encodes and buffers one record, rotating segments as needed.
// Durability requires a subsequent Sync; the record's bytes may sit in the
// in-process buffer until then.
func (l *Log) Append(r Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appendLocked(r)
}

func (l *Log) appendLocked(r Record) error {
	if l.closed {
		return l.closedErrLocked()
	}
	frame := codec.EndFrame(encodePayload(codec.StartFrame(l.enc[:0]), r), 0)
	l.enc = frame[:0]
	end := l.segSize + int64(len(frame))
	if l.opts.Sync && end > l.zeroed {
		// Zero-fill ahead before buffering the frame, so no buffered byte
		// ever lies beyond zeroed.  The fill stops at the rotation
		// threshold — sealing would truncate anything past it — but always
		// covers the whole frame.
		grow := max(end, min(l.zeroed+zeroChunk, l.opts.SegmentSize))
		for l.zeroed < grow {
			n, err := l.f.WriteAt(zeros[:min(grow-l.zeroed, zeroChunk)], l.zeroed)
			if err != nil {
				return l.poisonLocked(err)
			}
			l.zeroed += int64(n)
		}
	}
	if _, err := l.w.Write(frame); err != nil {
		return l.poisonLocked(err)
	}
	l.appends.Add(1)
	l.bytes.Add(int64(len(frame)))
	l.segSize += int64(len(frame))
	if l.segSize >= l.opts.SegmentSize && !l.syncing {
		return l.rotateLocked() // under an fsync the syncer rotates when it is done
	}
	return nil
}

// AppendSync appends r and waits for the horizon to cover it, so the record
// is durable (to the extent Options.Sync promises) when it returns.  A
// shard's commit and prepared-vote records go through it.
func (l *Log) AppendSync(r Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.appendLocked(r); err != nil {
		return err
	}
	return l.syncLocked()
}

// AppendBatchSync appends every record, then waits for the horizon once:
// one fsync amortized over the whole batch.  The benchmark's device probe
// (wal.batch8_sync_us) is its only caller.
func (l *Log) AppendBatchSync(recs []Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, r := range recs {
		if err := l.appendLocked(r); err != nil {
			return err
		}
	}
	return l.syncLocked()
}

// Sync makes previously appended records durable: with Options.Sync it
// returns once the horizon covers them.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncLocked()
}

// syncLocked returns once everything appended so far is durable.  It is
// entered and left with mu held, but does not hold it throughout: it may
// wait on cond, and as the syncer it releases mu across the fsync.
func (l *Log) syncLocked() error {
	if l.closed {
		return l.closedErrLocked()
	}
	if !l.opts.Sync {
		// Lazy mode: leave records in the in-process buffer; rotation and
		// Close flush them.  A process crash loses the buffered tail —
		// the accepted trade of Sync off.
		return nil
	}
	lsn := l.bytes.Load()
	for l.durable < lsn {
		if l.closed {
			return l.closedErrLocked()
		}
		if l.syncing || l.sealers > 0 {
			l.cond.Wait()
			continue
		}
		if err := l.w.Flush(); err != nil {
			return l.poisonLocked(err)
		}
		f, target := l.f, l.bytes.Load()
		l.syncing = true
		l.mu.Unlock()
		err := l.syncFile(f)
		l.mu.Lock()
		l.syncing = false
		l.cond.Broadcast()
		if l.failed != nil {
			_ = f.Close() // poisoned under the fsync: the close was left to us
		}
		if err != nil {
			return l.poisonLocked(err)
		}
		l.fsyncs.Add(1)
		l.durable = target
		if l.segSize >= l.opts.SegmentSize && !l.closed {
			// An append deferred its rotation to us.  Failing poisons the
			// log, but target is durable and acknowledged all the same.
			_ = l.rotateLocked()
		}
	}
	return nil
}

// quiesceLocked waits out the fsync in flight, if any, and keeps the next
// from starting until the caller — who is about to close or swap the
// segment file — releases mu and broadcasts.
func (l *Log) quiesceLocked() {
	l.sealers++
	for l.syncing {
		l.cond.Wait()
	}
	l.sealers--
}

// sealLocked flushes, cuts the zero-filled tail off, and fsyncs the
// current segment with mu held (no other fsync in flight), and moves the
// horizon over everything appended.
func (l *Log) sealLocked() error {
	if err := l.w.Flush(); err != nil {
		return err
	}
	if l.zeroed > l.segSize {
		if err := l.f.Truncate(l.segSize); err != nil {
			return err
		}
		l.zeroed = l.segSize
	}
	if err := l.syncFile(l.f); err != nil {
		return err
	}
	l.fsyncs.Add(1)
	l.durable = l.bytes.Load()
	return nil
}

// rotateLocked seals the current segment (flush + fsync, whatever the Sync
// mode: a sealed segment is never written again, so it should never be
// half on disk) and opens the next.
func (l *Log) rotateLocked() error {
	if err := l.sealLocked(); err != nil {
		return l.poisonLocked(err)
	}
	if err := l.f.Close(); err != nil {
		return l.poisonLocked(err)
	}
	l.sealed = append(l.sealed, sealedSeg{index: l.segIndex, size: l.segSize})
	if err := l.createSegmentLocked(l.segIndex + 1); err != nil {
		return l.poisonLocked(err)
	}
	return nil
}

// Rotate seals the current segment (flush + fsync + close) and opens the
// next, returning the new current segment index: every segment with a
// smaller index is sealed — fully on disk and never written again.  An
// already-empty current segment is left in place (rotating it would churn
// out zero-byte files), so Rotate is idempotent between appends.  The
// checkpointer calls this to fix its cut: the index is the bound it later
// passes to TruncateBelow.
func (l *Log) Rotate() (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	defer l.cond.Broadcast()
	l.quiesceLocked()
	if l.closed {
		return 0, l.closedErrLocked()
	}
	if l.segSize == 0 {
		return l.segIndex, nil
	}
	if err := l.rotateLocked(); err != nil {
		return 0, err
	}
	return l.segIndex, nil
}

// Close flushes, fsyncs, and closes the log.  Closing twice is a no-op.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	defer l.cond.Broadcast()
	l.quiesceLocked()
	if l.closed {
		return nil
	}
	l.closed = true
	defer func() {
		unlockDir(l.lock)
		l.lock = nil
	}()
	if err := l.sealLocked(); err != nil {
		l.f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

// Crash simulates process death at this instant: the in-process buffer is
// dropped (never flushed) and the file handle closed.  Records past the
// last flush are lost exactly as a kill -9 would lose them; subsequent
// appends fail with ErrClosed.  Test hook for the crash-point suites.
func (l *Log) Crash() {
	l.mu.Lock()
	defer l.mu.Unlock()
	defer l.cond.Broadcast()
	l.quiesceLocked()
	if l.closed {
		return
	}
	l.closed = true
	_ = l.f.Close()
	// A real kill -9 drops the flock with the process; the simulated crash
	// must release it too, or the recovery half of a crash test could
	// never reopen the directory.
	unlockDir(l.lock)
	l.lock = nil
}

// Stats returns append/fsync counters and the segment count.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	n := len(l.sealed) + 1
	l.mu.Unlock()
	return Stats{Appends: l.appends.Load(), Fsyncs: l.fsyncs.Load(), Segments: n, Bytes: l.bytes.Load()}
}

// Dir returns the log directory.
func (l *Log) Dir() string { return l.dir }
