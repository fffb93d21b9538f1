package adt

import (
	"encoding/hex"
	"testing"

	"hybridcc/internal/spec"
)

// TestGoldenStateEncodings pins each built-in's DurableState encoding byte
// for byte: checkpoints store these blobs, so a change here is a
// checkpoint format change.
func TestGoldenStateEncodings(t *testing.T) {
	cases := []struct {
		spec spec.DurableSpec
		ops  []spec.Op
		hex  string
	}{
		{NewAccount(), []spec.Op{Credit(100), Debit(30), Post(2)}, "9802"},
		{NewCounter(), []spec.Op{Inc(5), Inc(7)}, "18"},
		{NewQueue(), []spec.Op{Enq(3), Enq(1), Enq(2), Deq(3)}, "0201310132"},
		{NewSemiqueue(), []spec.Op{Ins(9), Ins(2), Ins(9), Rem(2)}, "0201390139"},
		{NewSet(), []spec.Op{SetInsert(4, true), SetInsert(8, true), SetRemove(4, true), SetInsert(15, true)}, "020231350138"},
		{NewDirectory(), []spec.Op{DirBind("a", 1, true), DirBind("b", 2, true), DirUnbind("a", true)}, "0101620132"},
		{NewFile(), []spec.Op{FileWrite(42)}, "023432"},
	}
	for _, tc := range cases {
		t.Run(tc.spec.Name(), func(t *testing.T) {
			st, ok := spec.Replay(tc.spec, tc.ops)
			if !ok {
				t.Fatal("setup ops illegal")
			}
			blob, err := tc.spec.EncodeState(st)
			if err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(blob); got != tc.hex {
				t.Fatalf("state encoding changed: got %s, want %s", got, tc.hex)
			}
		})
	}
}
