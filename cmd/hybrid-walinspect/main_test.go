package main

import (
	"io"
	"os"
	"strings"
	"testing"

	"hybridcc/internal/wal"
)

// TestInspectCrashedZeroTail: a syncing log killed mid-run leaves its live
// segment's zero-filled tail on disk.  inspect reports it as a clean
// segment with a preallocated tail and exits clean — not as a torn one.
func TestInspectCrashedZeroTail(t *testing.T) {
	dir := t.TempDir()
	l, _, err := wal.Open(dir, wal.Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, tx := range []string{"T1", "T2"} {
		if err := l.AppendSync(wal.Record{Kind: wal.KindCommit, Tx: tx, TS: 1}); err != nil {
			t.Fatal(err)
		}
	}
	l.Crash()

	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	ierr := inspect(dir)
	os.Stdout = stdout
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if ierr != nil {
		t.Fatalf("inspect: %v\n%s", ierr, out)
	}
	if !strings.Contains(string(out), "2 record(s)") || !strings.Contains(string(out), "preallocated") ||
		strings.Contains(string(out), "torn") {
		t.Fatalf("want a clean segment with a preallocated tail, got:\n%s", out)
	}
}
