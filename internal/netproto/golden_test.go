package netproto

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// The golden tests pin the wire frame and the catalog file byte for byte.
// A change to a hex constant here is a protocol change (protoVersion) or a
// catalog format change, which a reopened shard would not survive.

func TestGoldenCallFrame(t *testing.T) {
	const want = "1c0000004fc6a241030663312e5431370461636374064372656469740232350000000000"
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	m := message{typ: msgCall, tx: "c1.T17", obj: "acct", a: "Credit", b: "25"}
	if _, err := writeMessage(w, nil, &m); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(buf.Bytes()); got != want {
		t.Fatalf("call frame changed:\n got %s\nwant %s", got, want)
	}
}

func TestGoldenCatalogFile(t *testing.T) {
	const want = "14000000f8a2047e0461636374074163636f756e74066879627269641200000071b0a43f017105517565756509726561647772697465"
	dir := t.TempDir()
	c, _, err := OpenCatalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	entries := []CatalogEntry{{Name: "acct", TypeName: "Account", Scheme: "hybrid"}, {Name: "q", TypeName: "Queue", Scheme: "readwrite"}}
	if err := c.AppendBatch(entries); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, catalogFile))
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(data); got != want {
		t.Fatalf("catalog file changed:\n got %s\nwant %s", got, want)
	}
}
