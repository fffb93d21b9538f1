package wal

import (
	"encoding/binary"
	"encoding/hex"
	"os"
	"path/filepath"
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

// FuzzSegment fuzzes a segment file: frames holds record payloads, each
// behind its uvarint length, and every payload is framed validly, so each
// input gets past the CRC to readSegment's decoder.  The checks are
// FuzzDecodeRecord's, for the whole file: no panic, nothing decoded beyond
// the payloads, and the records read, written again as a segment, read back
// equal and untorn.
func FuzzSegment(f *testing.F) {
	var golden []byte
	for _, g := range goldenRecords {
		payload := encodePayload(nil, g.rec)
		golden = append(binary.AppendUvarint(golden, uint64(len(payload))), payload...)
	}
	f.Add(golden)
	f.Add([]byte{})
	f.Add([]byte{0})                                          // one empty payload: an all-zero frame
	f.Add(append(append([]byte(nil), golden...), 2, 0xff, 0)) // an unknown kind after three records

	path := filepath.Join(f.TempDir(), "seg") // one fuzz worker calls the target one input at a time
	f.Fuzz(func(t *testing.T, frames []byte) {
		var file []byte
		in := 0
		for rest := frames; len(rest) > 0; {
			n, k := binary.Uvarint(rest)
			if k <= 0 || n > uint64(len(rest)-k) {
				break
			}
			file = codec.AppendFrame(file, rest[k:k+int(n)])
			in += int(n)
			rest = rest[k+int(n):]
		}
		_, recs := readFuzzSegment(t, path, file)
		size := 0
		for _, r := range recs {
			size += recordSize(r)
		}
		if size > in {
			t.Fatalf("decoded %d bytes of fields out of %d payload bytes", size, in)
		}
		var again []byte
		for _, r := range recs {
			again = codec.AppendFrame(again, encodePayload(nil, r))
		}
		if info2, recs2 := readFuzzSegment(t, path, again); info2.Torn || !reflect.DeepEqual(recs2, recs) {
			t.Fatalf("re-written segment reads %+v, torn %v (%s); want %+v", recs2, info2.Torn, info2.Reason, recs)
		}
	})
}

// readFuzzSegment writes file to the segment at path and reads it back.
func readFuzzSegment(t *testing.T, path string, file []byte) (SegmentInfo, []Record) {
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
	info, recs, err := readSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	return info, recs
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
		if size := objectSize(ck.Objects[0]); size > len(data) {
			t.Fatalf("decoded %d bytes of fields out of a %d-byte frame", size, len(data))
		}
		again, err := decodeCheckpoint(encodeCheckpoint(ck))
		if err != nil || !reflect.DeepEqual(again, ck) {
			t.Fatalf("re-encoded checkpoint decodes to %+v, %v; want %+v", again, err, ck)
		}
	})
}

// objectSize is a lower bound on the frame bytes o was decoded from.
func objectSize(o CheckpointObject) int {
	size := len(o.Name) + len(o.State) + len(o.ImageOps) + len(o.Unforgotten)
	for _, e := range append(append([]CheckpointEntry(nil), o.ImageOps...), o.Unforgotten...) {
		size += len(e.Tx) + opsSize(e.Ops)
	}
	return size
}

// objectCheckpointFile frames payload as the one object of a checkpoint
// file with a valid header and footer.
func objectCheckpointFile(payload []byte) []byte {
	file := codec.AppendFrame(nil, []byte{ckptFrameHeader, ckptVersion, 9, 0, 1, 0})
	file = codec.AppendFrame(file, payload)
	return codec.AppendFrame(file, []byte{ckptFrameFooter, 2, 1, 0})
}

// FuzzCheckpointFile fuzzes a whole checkpoint file: the header frame's
// payload, and frames, the payloads after it (objects, pending records,
// footer), each behind its uvarint length.  Every payload is framed
// validly, so each input gets past the CRC to decodeCheckpoint.  The checks
// are FuzzDecodeRecord's: no panic, nothing decoded beyond the payloads,
// and whatever decodes survives a re-encode unchanged.
func FuzzCheckpointFile(f *testing.F) {
	wrapped, err := hex.DecodeString(wrappedCountsCheckpoint)
	if err != nil {
		f.Fatal(err)
	}
	for _, file := range [][]byte{
		wrapped,
		encodeCheckpoint(&goldenCheckpoint),
		encodeCheckpoint(sampleCheckpoint()),
		encodeCheckpoint(&Checkpoint{CutTS: 9}),
	} {
		var header, frames []byte
		for off := 0; off < len(file); {
			payload, size, reason := codec.Next(file[off:], maxPayload)
			if reason != "" {
				f.Fatalf("seed frame at %d: %s", off, reason)
			}
			if off == 0 {
				header = payload
			} else {
				frames = append(binary.AppendUvarint(frames, uint64(len(payload))), payload...)
			}
			off += size
		}
		f.Add(header, frames)
	}

	f.Fuzz(func(t *testing.T, header, frames []byte) {
		file := codec.AppendFrame(nil, header)
		in := len(header)
		for rest := frames; len(rest) > 0; {
			n, k := binary.Uvarint(rest)
			if k <= 0 || n > uint64(len(rest)-k) {
				break
			}
			file = codec.AppendFrame(file, rest[k:k+int(n)])
			in += int(n)
			rest = rest[k+int(n):]
		}
		ck, err := decodeCheckpoint(file)
		if err != nil {
			return
		}
		size := len(ck.Objects) + len(ck.Pending)
		for _, o := range ck.Objects {
			size += objectSize(o)
		}
		for _, r := range ck.Pending {
			size += recordSize(r)
		}
		if size > in {
			t.Fatalf("decoded %d bytes of fields out of %d payload bytes", size, in)
		}
		again, err := decodeCheckpoint(encodeCheckpoint(ck))
		if err != nil || !reflect.DeepEqual(again, ck) {
			t.Fatalf("re-encoded checkpoint decodes to %+v, %v; want %+v", again, err, ck)
		}
	})
}
