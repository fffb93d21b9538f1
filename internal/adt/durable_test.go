package adt

import (
	"testing"

	"hybridcc/internal/spec"
)

// TestDurableStateRoundTrip drives each built-in to a non-trivial state,
// round-trips it through EncodeState/DecodeState, and requires the result
// Equal — plus a determinism check (two encodings of one state match) for
// the map-backed types whose iteration order would otherwise leak in.
func TestDurableStateRoundTrip(t *testing.T) {
	cases := []struct {
		spec spec.DurableSpec
		ops  []spec.Op
	}{
		{NewAccount(), []spec.Op{Credit(100), Debit(30), Post(2)}},
		{NewCounter(), []spec.Op{Inc(5), Inc(7)}},
		{NewQueue(), []spec.Op{Enq(3), Enq(1), Enq(2), Deq(3)}},
		{NewSemiqueue(), []spec.Op{Ins(9), Ins(2), Ins(9), Rem(2)}},
		{NewSet(), []spec.Op{SetInsert(4, true), SetInsert(8, true), SetRemove(4, true), SetInsert(15, true)}},
		{NewDirectory(), []spec.Op{DirBind("a", 1, true), DirBind("b", 2, true), DirUnbind("a", true)}},
		{NewFile(), []spec.Op{FileWrite(42)}},
	}
	for _, tc := range cases {
		t.Run(tc.spec.Name(), func(t *testing.T) {
			st, ok := spec.Replay(tc.spec, tc.ops)
			if !ok {
				t.Fatal("setup ops illegal")
			}
			for _, s := range []spec.State{tc.spec.Init(), st} {
				blob, err := tc.spec.EncodeState(s)
				if err != nil {
					t.Fatal(err)
				}
				blob2, err := tc.spec.EncodeState(s)
				if err != nil {
					t.Fatal(err)
				}
				if string(blob) != string(blob2) {
					t.Fatalf("non-deterministic encoding: %x vs %x", blob, blob2)
				}
				got, err := tc.spec.DecodeState(blob)
				if err != nil {
					t.Fatal(err)
				}
				if !tc.spec.Equal(got, s) {
					t.Fatalf("round trip lost state: got %+v, want %+v", got, s)
				}
			}
		})
	}
}

// TestDurableStateDecodeRejectsGarbage: blobs cross a crash, so decoding
// must fail cleanly on bytes encoding cannot have produced.
func TestDurableStateDecodeRejectsGarbage(t *testing.T) {
	specs := []spec.DurableSpec{
		NewAccount(), NewCounter(), NewQueue(), NewSemiqueue(), NewSet(), NewDirectory(), NewFile(),
	}
	for _, sp := range specs {
		// A truncated varint: continuation bit set with nothing behind it.
		if _, err := sp.DecodeState([]byte{0xff}); err == nil {
			t.Errorf("%s: decoded garbage without error", sp.Name())
		}
	}
	if _, err := NewAccount().DecodeState(nil); err == nil {
		t.Error("Account: decoded empty blob (no balance) without error")
	}
	// Trailing bytes past a valid prefix must be rejected too.
	blob, err := NewCounter().EncodeState(counterState{n: 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewCounter().DecodeState(append(blob, 0x00)); err == nil {
		t.Error("Counter: accepted trailing bytes")
	}
}

// FuzzDecodeState feeds each built-in's state decoder hostile blobs, as a
// checkpoint whose CRC happened to match would: it must not panic, must
// not decode a state larger than the blob (the state's own encoding is
// canonical, so it is never longer than any blob that decodes to it), and
// whatever it accepts must survive a re-encode unchanged.
func FuzzDecodeState(f *testing.F) {
	specs := []spec.DurableSpec{
		NewAccount(), NewCounter(), NewQueue(), NewSemiqueue(), NewSet(), NewDirectory(), NewFile(),
	}
	for i, sp := range specs {
		blob, err := sp.EncodeState(sp.Init())
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(i), blob)
		f.Add(uint8(i), []byte{0xff})
		f.Add(uint8(i), []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}) // a count of 2^63
	}
	f.Add(uint8(2), []byte{2, 1, '1', 1, '2'})            // Queue [1 2]
	f.Add(uint8(3), []byte{2, 1, '2', 1, '1'})            // Semiqueue, unsorted
	f.Add(uint8(4), []byte{2, 1, '1', 1, '1'})            // Set, duplicate member
	f.Add(uint8(5), []byte{2, 1, 'a', 1, '1', 1, 'a', 0}) // Directory, duplicate key
	f.Add(uint8(6), []byte{2, '4', '2', 0})               // File, a trailing byte

	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		sp := specs[int(which)%len(specs)]
		st, err := sp.DecodeState(data)
		if err != nil {
			return
		}
		blob, err := sp.EncodeState(st)
		if err != nil {
			t.Fatal(err)
		}
		if len(blob) > len(data) {
			t.Fatalf("%s: a %d-byte blob decoded to a state whose encoding takes %d", sp.Name(), len(data), len(blob))
		}
		again, err := sp.DecodeState(blob)
		if err != nil || !sp.Equal(again, st) {
			t.Fatalf("%s: re-encoded state decodes to %+v, %v; want %+v", sp.Name(), again, err, st)
		}
	})
}
