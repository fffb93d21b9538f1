package wal

import (
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hybridcc/internal/codec"
)

func sampleCheckpoint() *Checkpoint {
	return &Checkpoint{
		CutTS:  42,
		MaxSeq: 17,
		Objects: []CheckpointObject{
			{
				Name:     "acct",
				Folded:   40,
				Clock:    42,
				HasState: true,
				State:    []byte("bal=130"),
				Unforgotten: []CheckpointEntry{
					{Tx: "T9", TS: 41, Participants: 2, Ops: []Op{{Name: "Credit", Arg: "30", Res: "Ok"}}},
				},
			},
			{
				Name:   "q",
				Folded: 10,
				Clock:  12,
				ImageOps: []CheckpointEntry{
					{Tx: "T1", TS: 3, Ops: []Op{{Name: "Enq", Arg: "7", Res: "Ok"}}},
					{Tx: "T2", TS: 5, Ops: []Op{{Name: "Enq", Arg: "8", Res: "Ok"}, {Name: "Deq", Arg: "", Res: "7"}}},
				},
				Unforgotten: []CheckpointEntry{
					{Tx: "T8", TS: 12, Ops: []Op{{Name: "Enq", Arg: "9", Res: "Ok"}}},
				},
			},
			{Name: "empty", Folded: 0, Clock: 0, HasState: true},
		},
		Pending: []Record{
			{Kind: KindPrepared, Tx: "T11", Objs: []ObjOps{{Obj: "acct", Ops: []Op{{Name: "Debit", Arg: "5", Res: "Ok"}}}}},
		},
	}
}

func checkpointsEqual(t *testing.T, got, want *Checkpoint) {
	t.Helper()
	if got.CutTS != want.CutTS || got.MaxSeq != want.MaxSeq {
		t.Fatalf("header mismatch: got cut=%d seq=%d, want cut=%d seq=%d", got.CutTS, got.MaxSeq, want.CutTS, want.MaxSeq)
	}
	if len(got.Objects) != len(want.Objects) {
		t.Fatalf("got %d objects, want %d", len(got.Objects), len(want.Objects))
	}
	for i := range want.Objects {
		g, w := got.Objects[i], want.Objects[i]
		if g.Name != w.Name || g.Folded != w.Folded || g.Clock != w.Clock || g.HasState != w.HasState {
			t.Fatalf("object %d: got %+v, want %+v", i, g, w)
		}
		if string(g.State) != string(w.State) {
			t.Fatalf("object %s state: got %q, want %q", g.Name, g.State, w.State)
		}
		if fmt.Sprint(g.ImageOps) != fmt.Sprint(w.ImageOps) {
			t.Fatalf("object %s image: got %+v, want %+v", g.Name, g.ImageOps, w.ImageOps)
		}
		if fmt.Sprint(g.Unforgotten) != fmt.Sprint(w.Unforgotten) {
			t.Fatalf("object %s unforgotten: got %+v, want %+v", g.Name, g.Unforgotten, w.Unforgotten)
		}
	}
	recordsEqual(t, got.Pending, want.Pending)
}

func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want := sampleCheckpoint()
	name, err := WriteCheckpoint(dir, want)
	if err != nil {
		t.Fatal(err)
	}
	if name != CheckpointName(42) {
		t.Fatalf("published name %q, want %q", name, CheckpointName(42))
	}
	got, err := LoadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("LoadCheckpoint found nothing")
	}
	if got.Name != name {
		t.Fatalf("loaded Name %q, want %q", got.Name, name)
	}
	checkpointsEqual(t, got, want)
}

func TestLoadCheckpointEmptyDir(t *testing.T) {
	ck, err := LoadCheckpoint(t.TempDir())
	if err != nil || ck != nil {
		t.Fatalf("empty dir: got %v, %v; want nil, nil", ck, err)
	}
	ck, err = LoadCheckpoint(filepath.Join(t.TempDir(), "missing"))
	if err != nil || ck != nil {
		t.Fatalf("missing dir: got %v, %v; want nil, nil", ck, err)
	}
}

// TestCheckpointPublishSupersedes proves the retire step: publishing a
// newer checkpoint removes the older file, and until it runs the newer
// one wins the load.
func TestCheckpointPublishSupersedes(t *testing.T) {
	dir := t.TempDir()
	old := sampleCheckpoint()
	old.CutTS = 10
	if _, err := WriteCheckpoint(dir, old); err != nil {
		t.Fatal(err)
	}
	nw := sampleCheckpoint()
	if _, err := WriteCheckpoint(dir, nw); err != nil {
		t.Fatal(err)
	}
	names, err := checkpointFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != CheckpointName(42) {
		t.Fatalf("after publish, files = %v, want just %s", names, CheckpointName(42))
	}
	got, err := LoadCheckpoint(dir)
	if err != nil || got == nil || got.CutTS != 42 {
		t.Fatalf("loaded %+v, %v; want cut 42", got, err)
	}
}

// TestCheckpointTornIgnored corrupts the published file in several ways;
// each must make LoadCheckpoint skip it (falling back to an older valid
// checkpoint when present), never error out.
func TestCheckpointTornIgnored(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(data []byte) []byte
	}{
		{"truncated mid-frame", func(d []byte) []byte { return d[:len(d)-5] }},
		{"missing footer", func(d []byte) []byte {
			// Chop the exact footer frame: re-encode without it.
			ck := sampleCheckpoint()
			full := encodeCheckpoint(ck)
			var off, prev int
			for off < len(full) {
				n := int(uint32(full[off]) | uint32(full[off+1])<<8 | uint32(full[off+2])<<16 | uint32(full[off+3])<<24)
				prev = off
				off += codec.HeaderSize + n
			}
			return full[:prev]
		}},
		{"flipped byte", func(d []byte) []byte { d[len(d)/2] ^= 0xff; return d }},
		{"empty file", func(d []byte) []byte { return nil }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			old := sampleCheckpoint()
			old.CutTS = 7
			if _, err := WriteCheckpoint(dir, old); err != nil {
				t.Fatal(err)
			}
			bad := sampleCheckpoint()
			name, err := WriteCheckpoint(dir, bad)
			if err != nil {
				t.Fatal(err)
			}
			// Publishing bad retired old; put old back to test fallback.
			if _, err := WriteCheckpoint(dir, old); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, name)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.corrupt(data), 0o644); err != nil {
				t.Fatal(err)
			}
			got, err := LoadCheckpoint(dir)
			if err != nil {
				t.Fatalf("LoadCheckpoint errored on corruption: %v", err)
			}
			if got == nil || got.CutTS != 7 {
				t.Fatalf("fallback loaded %+v, want the older cut-7 checkpoint", got)
			}
		})
	}
}

// TestCheckpointCrashWindows simulates kill -9 at each publication stage
// via the failpoint sentinel and checks what LoadCheckpoint + Open's
// settle make of the directory.
func TestCheckpointCrashWindows(t *testing.T) {
	defer func() { CheckpointFailpoint = nil }()

	crashAt := func(stage string) {
		CheckpointFailpoint = func(s string) error {
			if s == stage {
				return ErrCheckpointCrash
			}
			return nil
		}
	}

	t.Run("before rename", func(t *testing.T) {
		dir := t.TempDir()
		old := sampleCheckpoint()
		old.CutTS = 7
		CheckpointFailpoint = nil
		if _, err := WriteCheckpoint(dir, old); err != nil {
			t.Fatal(err)
		}
		crashAt("rename")
		if _, err := WriteCheckpoint(dir, sampleCheckpoint()); !errors.Is(err, ErrCheckpointCrash) {
			t.Fatalf("err = %v, want ErrCheckpointCrash", err)
		}
		// The torn attempt left a .tmp; it must be ignored by load and
		// removed by settle, with the old checkpoint still authoritative.
		if got, err := LoadCheckpoint(dir); err != nil || got == nil || got.CutTS != 7 {
			t.Fatalf("loaded %+v, %v; want old cut-7", got, err)
		}
		if err := SettleCheckpoints(dir); err != nil {
			t.Fatal(err)
		}
		entries, _ := os.ReadDir(dir)
		for _, e := range entries {
			if strings.HasSuffix(e.Name(), checkpointTmpExt) {
				t.Fatalf("settle left temporary %s behind", e.Name())
			}
		}
	})

	t.Run("between rename and retire", func(t *testing.T) {
		dir := t.TempDir()
		old := sampleCheckpoint()
		old.CutTS = 7
		CheckpointFailpoint = nil
		if _, err := WriteCheckpoint(dir, old); err != nil {
			t.Fatal(err)
		}
		crashAt("retire")
		if _, err := WriteCheckpoint(dir, sampleCheckpoint()); !errors.Is(err, ErrCheckpointCrash) {
			t.Fatalf("err = %v, want ErrCheckpointCrash", err)
		}
		// Two published checkpoints coexist; the newer wins, and settle
		// retires the older.
		names, _ := checkpointFiles(dir)
		if len(names) != 2 {
			t.Fatalf("files = %v, want two published checkpoints", names)
		}
		if got, err := LoadCheckpoint(dir); err != nil || got == nil || got.CutTS != 42 {
			t.Fatalf("loaded %+v, %v; want new cut-42", got, err)
		}
		if err := SettleCheckpoints(dir); err != nil {
			t.Fatal(err)
		}
		names, _ = checkpointFiles(dir)
		if len(names) != 1 || names[0] != CheckpointName(42) {
			t.Fatalf("after settle, files = %v, want just %s", names, CheckpointName(42))
		}
	})

	t.Run("injected failure cleans tmp", func(t *testing.T) {
		dir := t.TempDir()
		CheckpointFailpoint = func(s string) error {
			if s == "sync" {
				return errors.New("injected ENOSPC")
			}
			return nil
		}
		if _, err := WriteCheckpoint(dir, sampleCheckpoint()); err == nil {
			t.Fatal("injected failure did not propagate")
		}
		entries, _ := os.ReadDir(dir)
		if len(entries) != 0 {
			var names []string
			for _, e := range entries {
				names = append(names, e.Name())
			}
			t.Fatalf("failed attempt left %v behind", names)
		}
	})
}

// TestCoverageAndTruncation drives both halves against a real log: the
// coverage oracle reports exactly the segments a checkpoint covers, and
// truncation — which reads nothing, on the caller's word — unlinks every
// sealed segment below its bound, before and after a reopen, and never
// touches the live segment.
func TestCoverageAndTruncation(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Sync: true, SegmentSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// SegmentSize 1 rotates after every append: each record seals into its
	// own segment.
	appendAll := func(recs ...Record) {
		t.Helper()
		for _, r := range recs {
			if err := l.AppendSync(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	appendAll(
		commitRec("T1", 3),                // folded: ts < 40
		commitRec("T2", 41),               // unforgotten
		commitRec("T3", 45),               // NOT covered: above fold, not in unforgotten
		Record{Kind: KindAbort, Tx: "T4"}, // always covered
		Record{Kind: KindCommit, Tx: "T5", TS: 2, Objs: []ObjOps{{Obj: "ghost", Ops: []Op{{Name: "X"}}}}}, // unknown object
		commitRec("T6", 50), // NOT covered
	)

	ck := &Checkpoint{
		CutTS: 42,
		Objects: []CheckpointObject{{
			Name: "acct", Folded: 40, Clock: 42, HasState: true, State: []byte("s"),
			Unforgotten: []CheckpointEntry{{Tx: "T2", TS: 41}},
		}},
	}

	covered, err := CoveredSegments(dir, l.segIndex, ck)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, s := range covered {
		names = append(names, s.Name)
	}
	want := []string{segmentName(1), segmentName(2), segmentName(4)}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Fatalf("covered = %v, want %v", names, want)
	}

	before := l.Stats().Segments
	reclaimed, removed, err := l.TruncateBelow(l.segIndex)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 6 || reclaimed == 0 {
		t.Fatalf("removed %d segments (%d bytes), want 6", removed, reclaimed)
	}
	if got := l.Stats().Segments; got != before-6 {
		t.Fatalf("Segments stat %d, want %d", got, before-6)
	}
	if _, err := os.Stat(filepath.Join(dir, segmentName(l.segIndex))); err != nil {
		t.Fatalf("live segment touched: %v", err)
	}

	// Reopening the directory (settle + replay) works after truncation —
	// segment numbering now starts above 1 — and the reopened log knows
	// its sealed segments again.
	l.Close()
	l2, recs, err := Open(dir, Options{Sync: true, SegmentSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(recs) != 0 {
		t.Fatalf("reopen replayed %d records, want 0", len(recs))
	}
	if err := l2.AppendSync(commitRec("T7", 60)); err != nil {
		t.Fatal(err)
	}
	if _, removed, err := l2.TruncateBelow(l2.segIndex); err != nil || removed != 1 {
		t.Fatalf("after reopen: removed %d segments, err %v; want T7's alone", removed, err)
	}
	if recs, err := ReadAll(dir); err != nil || len(recs) != 0 {
		t.Fatalf("after reopen: surviving records %+v, %v; want none", recs, err)
	}
}

// TestTruncationBoundExcludesLaterSegments: truncation honors the bound
// captured at the checkpoint cut, not the live index at truncation time.
// A prepared record sealed after the cut belongs to a branch the
// checkpoint's Pending set never saw — unlinking its segment would delete
// the only copy of an undecided branch.
func TestTruncationBoundExcludesLaterSegments(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Sync: true, SegmentSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.AppendSync(commitRec("T1", 3)); err != nil {
		t.Fatal(err)
	}
	bound, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	// An append racing the checkpoint seals a prepared record into a
	// segment at or above the captured bound.
	prep := Record{Kind: KindPrepared, Tx: "T9", Objs: []ObjOps{{Obj: "acct", Ops: []Op{{Name: "Debit", Arg: "1", Res: "Ok"}}}}}
	if err := l.AppendSync(prep); err != nil {
		t.Fatal(err)
	}
	if _, removed, err := l.TruncateBelow(bound); err != nil || removed != 1 {
		t.Fatalf("removed %d segments, err %v; want exactly the folded commit's", removed, err)
	}
	recs, err := ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Tx != "T9" || recs[0].Kind != KindPrepared {
		t.Fatalf("surviving records %+v, want the post-cut prepared T9", recs)
	}
}

// TestPendingCoverage: prepared and abort records never pin a segment —
// the checkpoint's pending set carries unresolved branches.
func TestPendingCoverage(t *testing.T) {
	prep := Record{Kind: KindPrepared, Tx: "T1", Objs: []ObjOps{{Obj: "acct", Ops: []Op{{Name: "Debit", Arg: "1", Res: "Ok"}}}}}
	ix := (&Checkpoint{Objects: []CheckpointObject{{Name: "acct", Folded: 10}}}).index()
	if !ix.covers(prep) {
		t.Fatal("prepared record must be covered")
	}
	if !ix.covers(Record{Kind: KindAbort, Tx: "T1"}) {
		t.Fatal("abort record must be covered")
	}
	if ix.covers(Record{Kind: KindDecision, Tx: "T1", TS: 5}) {
		t.Fatal("decision record must not be covered by a shard checkpoint")
	}
	// A commit leg below the fold at a known object is covered even with
	// an empty unforgotten set.
	if !ix.covers(Record{Kind: KindCommit, Tx: "T2", TS: 9, Objs: []ObjOps{{Obj: "acct"}}}) {
		t.Fatal("folded commit leg must be covered")
	}
	if ix.covers(Record{Kind: KindCommit, Tx: "T3", TS: 10, Objs: []ObjOps{{Obj: "acct"}}}) {
		t.Fatal("commit leg at the fold boundary must not be covered")
	}
}

// TestSegmentsCoexistWithCheckpointFiles: ReadDir ignores checkpoint
// files, checkpointFiles ignores segments.
func TestSegmentsCoexistWithCheckpointFiles(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendSync(commitRec("T1", 3)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteCheckpoint(dir, sampleCheckpoint()); err != nil {
		t.Fatal(err)
	}
	recs, segs, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || len(segs) != 1 {
		t.Fatalf("ReadDir saw %d records in %d segments, want 1 in 1", len(recs), len(segs))
	}
	names, err := checkpointFiles(dir)
	if err != nil || len(names) != 1 {
		t.Fatalf("checkpointFiles = %v, %v; want one entry", names, err)
	}
}

// wrappedCountsCheckpoint is a checkpoint file whose frames are all intact
// but whose header claims 2^64−1 objects and 2 pending records: summed in
// uint64 with the two framing frames the counts wrap to 3, which matches
// its 3 frames (the header and two valid object frames).
const wrappedCountsCheckpoint = "0f0000005121229310010901ffffffffffffffffff010209000000e5d74a0611016100000101780009000000bda24fbe110162000001017800"

// Regression: decodeCheckpoint summed the header's counts without bounding
// them, passed the frame-count check on the wrapped sum and indexed past
// the frames.  A checkpoint the decoder cannot trust is an error, and
// LoadCheckpoint ignores it.
func TestCheckpointWrappedCountsRejected(t *testing.T) {
	data, err := hex.DecodeString(wrappedCountsCheckpoint)
	if err != nil {
		t.Fatal(err)
	}
	if ck, err := decodeCheckpoint(data); err == nil {
		t.Fatalf("decoded %+v from a header whose counts wrap", ck)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, CheckpointName(9)), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if ck, err := LoadCheckpoint(dir); err != nil || ck != nil {
		t.Fatalf("LoadCheckpoint = %+v, %v; want the bad checkpoint ignored", ck, err)
	}
}

// Regression: the checkpoint decoder read an entry's participant count and
// its timestamp as raw uvarints, so CRC-valid bytes holding 2^64−1 decoded,
// with no error, to −1, and a participant count of −1 skips recovery's
// torn-leg check.  Every count and every int64 field (a timestamp, a fold
// frontier, a clock, a cut) is bounded, in the record decoder too, and
// LoadCheckpoint ignores such a file.
func TestCheckpointWrappedSignedFieldsRejected(t *testing.T) {
	for _, c := range []struct {
		field string
		wrap  func(ck *Checkpoint)
	}{
		{"participants", func(ck *Checkpoint) { ck.Objects[0].Unforgotten[0].Participants = -1 }},
		{"unforgotten ts", func(ck *Checkpoint) { ck.Objects[0].Unforgotten[0].TS = -7 }},
		{"image ts", func(ck *Checkpoint) { ck.Objects[1].ImageOps[0].TS = -7 }},
		{"folded", func(ck *Checkpoint) { ck.Objects[0].Folded = -1 }},
		{"clock", func(ck *Checkpoint) { ck.Objects[0].Clock = -1 }},
		{"cut", func(ck *Checkpoint) { ck.CutTS = -1 }},
	} {
		ck := sampleCheckpoint()
		c.wrap(ck)
		data := encodeCheckpoint(ck)
		if _, err := decodeCheckpoint(data); err == nil {
			t.Errorf("%s: a field that wraps decodes with no error", c.field)
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, CheckpointName(9)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if got, err := LoadCheckpoint(dir); err != nil || got != nil {
			t.Errorf("%s: LoadCheckpoint = %v, %v; want the bad checkpoint ignored", c.field, got != nil, err)
		}
	}
	for _, r := range []Record{
		{Kind: KindCommit, Tx: "T1", TS: -1, Participants: 1},
		{Kind: KindCommit, Tx: "T1", TS: 3, Participants: -1},
		{Kind: KindDecision, Tx: "T1", TS: -7},
	} {
		if got, err := decodePayload(encodePayload(nil, r)); err == nil {
			t.Errorf("decoded %+v from %+v, whose fields wrap", got, r)
		}
	}
}
