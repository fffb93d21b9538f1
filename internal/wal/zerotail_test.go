package wal

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// checkZeroed asserts the live-segment invariant of a Sync log:
// segSize ≤ zeroed == the file's length on disk.
func checkZeroed(t *testing.T, l *Log) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	fi, err := l.f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if l.zeroed != fi.Size() || l.segSize > l.zeroed {
		t.Fatalf("segSize=%d zeroed=%d, file length %d", l.segSize, l.zeroed, fi.Size())
	}
}

// lastSegment scans dir and returns its final segment.
func lastSegment(t *testing.T, dir string) SegmentInfo {
	t.Helper()
	_, segs, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) == 0 {
		t.Fatal("no segments")
	}
	return segs[len(segs)-1]
}

// crashedWithZeroTail leaves dir holding recs, synced, in a live segment
// followed by its zero-filled tail — the shape of a killed Sync log.
func crashedWithZeroTail(t *testing.T, dir string, recs []Record) {
	t.Helper()
	l, _, err := Open(dir, Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendBatchSync(recs); err != nil {
		t.Fatal(err)
	}
	l.Crash()
}

// TestZeroTailMatchesFileLengthAfterOpen: whichever shape Open repairs or
// keeps, zeroed is the file's real length afterwards.  Overstating it
// would make every later append grow the file again.
func TestZeroTailMatchesFileLengthAfterOpen(t *testing.T) {
	recs := []Record{commitRec("T1", 1), commitRec("T2", 2)}
	cases := map[string]func(t *testing.T, dir string){
		"empty directory": func(t *testing.T, dir string) {},
		"clean close": func(t *testing.T, dir string) {
			l, _, err := Open(dir, Options{Sync: true})
			if err != nil {
				t.Fatal(err)
			}
			if err := l.AppendBatchSync(recs); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
		},
		"crash with zero tail": func(t *testing.T, dir string) { crashedWithZeroTail(t, dir, recs) },
		"torn frame then zeros": func(t *testing.T, dir string) {
			crashedWithZeroTail(t, dir, recs)
			tearAtGoodBytes(t, dir)
		},
	}
	for name, prepare := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			prepare(t, dir)
			l, _, err := Open(dir, Options{Sync: true})
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			checkZeroed(t, l)
			if err := l.AppendSync(commitRec("T3", 3)); err != nil {
				t.Fatal(err)
			}
			checkZeroed(t, l)
		})
	}
}

// tearAtGoodBytes writes the first bytes of a frame where the final
// segment's next frame would start, inside its zero tail.
func tearAtGoodBytes(t *testing.T, dir string) {
	t.Helper()
	last := lastSegment(t, dir)
	f, err := os.OpenFile(filepath.Join(dir, last.Name), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	data, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(data[:5], last.GoodBytes); err != nil {
		t.Fatal(err)
	}
}

// TestCrashLeavesZeroTail: a killed Sync log leaves its zero-filled tail on
// disk.  Reopening reads it as a clean end, not a torn one, keeps it, and
// appends over it from the last record on.
func TestCrashLeavesZeroTail(t *testing.T) {
	dir := t.TempDir()
	want := []Record{commitRec("T1", 1), commitRec("T2", 2), commitRec("T3", 3)}
	crashedWithZeroTail(t, dir, want)
	seg := lastSegment(t, dir)
	if seg.Torn || seg.GoodBytes >= seg.Size || seg.Records != len(want) {
		t.Fatalf("crashed segment: %+v, want clean with a zero tail", seg)
	}

	l, got, err := Open(dir, Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	recordsEqual(t, got, want)
	checkZeroed(t, l)
	extra := commitRec("T4", 4)
	if err := l.AppendSync(extra); err != nil {
		t.Fatal(err)
	}
	want = append(want, extra)
	// The record landed at GoodBytes: a frame after a gap of zeros would
	// read as torn at the gap.
	after := lastSegment(t, dir)
	if after.Torn || after.Size != seg.Size || after.Records != len(want) {
		t.Fatalf("after append: %+v, want %d clean records in %d bytes", after, len(want), seg.Size)
	}
	l.Crash()

	l2, got, err := Open(dir, Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	recordsEqual(t, got, want)
}

// TestTornFrameBeforeZeroTail: a partial frame followed by the zero tail is
// a torn tail, not a clean one — Open cuts the file at the last good frame.
func TestTornFrameBeforeZeroTail(t *testing.T) {
	dir := t.TempDir()
	want := []Record{commitRec("T1", 1), commitRec("T2", 2)}
	crashedWithZeroTail(t, dir, want)
	good := lastSegment(t, dir).GoodBytes
	tearAtGoodBytes(t, dir)
	seg := lastSegment(t, dir)
	if !seg.Torn || seg.GoodBytes != good {
		t.Fatalf("torn segment: %+v, want torn at %d", seg, good)
	}

	l, got, err := Open(dir, Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	recordsEqual(t, got, want)
	checkZeroed(t, l)
	fi, err := os.Stat(filepath.Join(dir, seg.Name))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != good {
		t.Fatalf("repaired segment is %d bytes, want %d", fi.Size(), good)
	}
}

// TestSealedSegmentHasNoZeroTail: rotation and Close truncate the zeros
// away, so only the live segment ever carries a tail.
func TestSealedSegmentHasNoZeroTail(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Sync: true, SegmentSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := l.AppendSync(commitRec("T", int64(i+1))); err != nil {
			t.Fatal(err)
		}
		if i == 3 {
			if _, err := l.Rotate(); err != nil {
				t.Fatal(err)
			}
		}
	}
	checkZeroed(t, l)
	_, segs, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("want several segments, got %d", len(segs))
	}
	for _, s := range segs[:len(segs)-1] {
		if s.Torn || s.Size != s.GoodBytes {
			t.Fatalf("sealed segment %+v has a tail", s)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, segs, err = ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range segs {
		if s.Torn || s.Size != s.GoodBytes {
			t.Fatalf("segment %+v has a tail after Close", s)
		}
	}
}

// TestNoSyncWritesNoZeros: with Sync off the log preallocates nothing; the
// file holds exactly the records flushed to it.
func TestNoSyncWritesNoZeros(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Sync: false})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := l.Append(commitRec("T", int64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	l.mu.Lock()
	err = l.w.Flush()
	l.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	bytes := l.Stats().Bytes
	l.Crash()
	seg := lastSegment(t, dir)
	if seg.Size != bytes || seg.GoodBytes != bytes || seg.Torn {
		t.Fatalf("no-sync segment %+v, want exactly %d record bytes", seg, bytes)
	}
}

// TestZeroTailFrameStraddlesChunk appends until a frame crosses the end of
// the first zero-filled chunk: the log fills the next chunk before
// buffering the frame, and every record reads back after a crash.
func TestZeroTailFrameStraddlesChunk(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	var want []Record
	for l.Stats().Bytes <= zeroChunk {
		r := commitRec("T", int64(len(want)+1))
		want = append(want, r)
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	checkZeroed(t, l)
	if l.zeroed != 2*zeroChunk {
		t.Fatalf("zeroed = %d after crossing the first chunk, want %d", l.zeroed, 2*zeroChunk)
	}
	l.Crash()
	l2, got, err := Open(dir, Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	recordsEqual(t, got, want)
}

// TestZeroTailFrameLargerThanChunk: a frame bigger than one chunk is still
// covered whole by the fill, and the next small frame extends it again.
func TestZeroTailFrameLargerThanChunk(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	big := Record{Kind: KindCommit, Tx: "Big", TS: 1, Objs: []ObjOps{{Obj: "blob", Ops: []Op{
		{Name: "Put", Arg: strings.Repeat("x", 2*zeroChunk), Res: "Ok"},
	}}}}
	want := []Record{big, commitRec("T2", 2)}
	if err := l.AppendSync(big); err != nil {
		t.Fatal(err)
	}
	checkZeroed(t, l)
	if l.zeroed != l.segSize {
		t.Fatalf("zeroed = %d, want exactly the big frame's end %d", l.zeroed, l.segSize)
	}
	if err := l.AppendSync(want[1]); err != nil {
		t.Fatal(err)
	}
	checkZeroed(t, l)
	l.Crash()
	l2, got, err := Open(dir, Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	recordsEqual(t, got, want)
}
