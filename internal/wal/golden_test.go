package wal

import (
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// The golden tests pin the on-disk formats byte for byte: a segment's
// record frames and a checkpoint file.  A change to any hex constant here
// is a format change, which recovery of existing logs would not survive.

// goldenRecords are a framed commit record with a participant stamp, a
// prepared record and a decision record, with their frames' hex.
var goldenRecords = []struct {
	rec Record
	hex string
}{
	{Record{Kind: KindCommit, Tx: "T1", TS: 300, Participants: 2, Objs: []ObjOps{
		{Obj: "acct", Ops: []Op{{Name: "Credit", Arg: "100", Res: "Ok"}, {Name: "Debit", Arg: "30", Res: "Ok"}}},
		{Obj: "q", Ops: []Op{{Name: "Enq", Arg: "7", Res: ""}}},
	}}, "3200000076617e9801025431ac0202020461636374020643726564697403313030024f6b054465626974023330024f6b01710103456e71013700"},
	{Record{Kind: KindPrepared, Tx: "n1.T2", Objs: []ObjOps{
		{Obj: "acct", Ops: []Op{{Name: "Debit", Arg: "5", Res: "Ok"}}},
	}}, "19000000cf27040802056e312e5432010461636374010544656269740135024f6b"},
	{Record{Kind: KindDecision, Tx: "n1.T2", TS: 1 << 40}, "0d000000e485641504056e312e5432808080808020"},
}

func TestGoldenSegmentFrames(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var want string
	for _, g := range goldenRecords {
		if err := l.Append(g.rec); err != nil {
			t.Fatal(err)
		}
		want += g.hex
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, segmentName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(data); got != want {
		t.Fatalf("segment bytes changed:\n got %s\nwant %s", got, want)
	}
	recs, err := ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range goldenRecords {
		recordsEqual(t, recs[i:i+1], []Record{g.rec})
		if recs[i].Participants != g.rec.Participants {
			t.Fatalf("record %d: participants %d, want %d", i, recs[i].Participants, g.rec.Participants)
		}
	}
}

// goldenCheckpoint has one state object, one image-ops object and one
// pending branch.
var goldenCheckpoint = Checkpoint{
	CutTS:  500,
	MaxSeq: 42,
	Objects: []CheckpointObject{
		{Name: "acct", Folded: 400, Clock: 450, HasState: true, State: []byte{0xc8, 0x01},
			Unforgotten: []CheckpointEntry{{Tx: "T9", TS: 420, Participants: 2, Ops: []Op{{Name: "Credit", Arg: "3", Res: "Ok"}}}}},
		{Name: "log", Folded: 300, Clock: 310,
			ImageOps: []CheckpointEntry{{Tx: "T3", TS: 120, Ops: []Op{{Name: "Write", Arg: "x", Res: "Ok"}, {Name: "Read", Arg: "", Res: "x"}}}}},
	},
	Pending: []Record{{Kind: KindPrepared, Tx: "n2.T7", Objs: []ObjOps{
		{Obj: "acct", Ops: []Op{{Name: "Debit", Arg: "1", Res: "Ok"}}},
	}}},
}

const goldenCheckpointHex = "070000001c831fc41001f4032a02012200000041b8c2061104616363749003c2030102c80101025439a4030201064372656469740133024f6b25000000c622d2af11036c6f67ac02b60200010254337800020557726974650178024f6b0452656164000178001a00000063745c861202056e322e5437010461636374010544656269740131024f6b040000003464d18813040201"

func TestGoldenCheckpointFile(t *testing.T) {
	data := encodeCheckpoint(&goldenCheckpoint)
	if got := hex.EncodeToString(data); got != goldenCheckpointHex {
		t.Fatalf("checkpoint bytes changed:\n got %s\nwant %s", got, goldenCheckpointHex)
	}
	ck, err := decodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	if again := encodeCheckpoint(ck); string(again) != string(data) {
		t.Fatalf("decoded checkpoint re-encodes to %x", again)
	}
}
