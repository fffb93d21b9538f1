package wal

import (
	"encoding/binary"
	"reflect"
	"testing"

	"hybridcc/internal/codec"
)

// FuzzDecodeRecord feeds the record decoder hostile payloads, as a segment
// or the decision ledger would hand it after a CRC that happened to match:
// it must not panic, must not decode more than the payload holds (every
// string is copied out of it, and every object and op costs at least one
// byte), and whatever it accepts must survive a re-encode unchanged.
func FuzzDecodeRecord(f *testing.F) {
	for _, g := range goldenRecords {
		f.Add(encodePayload(nil, g.rec))
	}
	f.Add(encodePayload(nil, Record{Kind: KindOwner, Tx: "c7f3"}))
	f.Add(encodePayload(nil, Record{Kind: KindCommit, Tx: "T1", TS: 3, Participants: 2})) // an empty leg
	f.Add(append(encodePayload(nil, Record{Kind: KindAbort, Tx: "T1"}), 0x01))            // a trailing byte
	// Counts that promise far more than the payload holds: 2^60 objects,
	// 2^40 ops.
	prefix := encodePayload(nil, Record{Kind: KindPrepared, Tx: "T1"})
	prefix = prefix[:len(prefix)-1] // drop the zero object count
	f.Add(binary.AppendUvarint(append([]byte(nil), prefix...), 1<<60))
	f.Add(binary.AppendUvarint(codec.AppendString(binary.AppendUvarint(append([]byte(nil), prefix...), 1), "acct"), 1<<40))

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := decodePayload(data)
		if size := recordSize(r); size > len(data) {
			t.Fatalf("decoded %d bytes of fields out of a %d-byte payload", size, len(data))
		}
		if err != nil {
			return
		}
		again, err := decodePayload(encodePayload(nil, r))
		if err != nil || !reflect.DeepEqual(again, r) {
			t.Fatalf("re-encoded record decodes to %+v, %v; want %+v", again, err, r)
		}
	})
}

// recordSize is a lower bound on the payload bytes r was decoded from.
func recordSize(r Record) int {
	size := len(r.Tx) + len(r.Objs)
	for _, oo := range r.Objs {
		size += len(oo.Obj) + opsSize(oo.Ops)
	}
	return size
}

func opsSize(ops []Op) int {
	size := len(ops)
	for _, op := range ops {
		size += len(op.Name) + len(op.Arg) + len(op.Res)
	}
	return size
}

// FuzzDecodeCheckpointObject fuzzes one object frame's payload inside an
// otherwise valid checkpoint file (a header frame promising one object and
// a matching footer), so every input reaches the object decoder instead
// of stopping at a CRC.  The checks are FuzzDecodeRecord's.
func FuzzDecodeCheckpointObject(f *testing.F) {
	for _, o := range append(append([]CheckpointObject(nil), goldenCheckpoint.Objects...), sampleCheckpoint().Objects...) {
		file := encodeCheckpoint(&Checkpoint{CutTS: 9, Objects: []CheckpointObject{o}})
		_, size, _ := codec.Next(file, maxPayload)
		payload, _, _ := codec.Next(file[size:], maxPayload)
		if _, err := decodeCheckpoint(objectCheckpointFile(payload)); err != nil {
			f.Fatalf("seed object %q does not decode: %v", o.Name, err)
		}
		f.Add(payload)
	}
	f.Add([]byte{ckptFrameObject})
	// A state of 2^40 bytes; 2^60 image entries.
	f.Add(binary.AppendUvarint(codec.AppendString([]byte{ckptFrameObject}, "a"), 1<<40))
	f.Add(binary.AppendUvarint(append(codec.AppendString([]byte{ckptFrameObject}, "a"), 0, 0, 0), 1<<60))

	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := decodeCheckpoint(objectCheckpointFile(data))
		if err != nil {
			return
		}
		if len(ck.Objects) != 1 {
			t.Fatalf("decoded %d objects from a one-object file", len(ck.Objects))
		}
		o := ck.Objects[0]
		size := len(o.Name) + len(o.State) + len(o.ImageOps) + len(o.Unforgotten)
		for _, e := range append(append([]CheckpointEntry(nil), o.ImageOps...), o.Unforgotten...) {
			size += len(e.Tx) + opsSize(e.Ops)
		}
		if size > len(data) {
			t.Fatalf("decoded %d bytes of fields out of a %d-byte frame", size, len(data))
		}
		again, err := decodeCheckpoint(encodeCheckpoint(ck))
		if err != nil || !reflect.DeepEqual(again, ck) {
			t.Fatalf("re-encoded checkpoint decodes to %+v, %v; want %+v", again, err, ck)
		}
	})
}

// objectCheckpointFile frames payload as the one object of a checkpoint
// file with a valid header and footer.
func objectCheckpointFile(payload []byte) []byte {
	file := codec.AppendFrame(nil, []byte{ckptFrameHeader, ckptVersion, 9, 0, 1, 0})
	file = codec.AppendFrame(file, payload)
	return codec.AppendFrame(file, []byte{ckptFrameFooter, 2, 1, 0})
}
