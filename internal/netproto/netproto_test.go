package netproto

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hybridcc/internal/adt"
	"hybridcc/internal/codec"
	"hybridcc/internal/core"
	"hybridcc/internal/histories"
	"hybridcc/internal/tstamp"
)

// --- wire ---

// fullMessage populates every field of the wire schema.
var fullMessage = message{
	typ: msgCall, tx: "T1", obj: "acct", a: "Credit", b: "7",
	ts: 1 << 40, n: 3, flag: 1, blob: []byte{0xde, 0xad},
	ids: []string{"T1", "T2-with-longer-id"},
}

func TestWireRoundTrip(t *testing.T) {
	in := fullMessage
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if _, err := writeMessage(w, nil, &in); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	out, _, err := readMessage(bufio.NewReader(&buf), nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.typ != in.typ || out.tx != in.tx || out.obj != in.obj || out.a != in.a ||
		out.b != in.b || out.ts != in.ts || out.n != in.n || out.flag != in.flag ||
		!bytes.Equal(out.blob, in.blob) || len(out.ids) != 2 || out.ids[1] != in.ids[1] {
		t.Fatalf("round trip mangled message: %+v -> %+v", in, out)
	}
}

func TestWireCRCDetectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if _, err := writeMessage(w, nil, &message{typ: msgPing, tx: "T9"}); err != nil {
		t.Fatal(err)
	}
	_ = w.Flush()
	raw := buf.Bytes()
	raw[codec.HeaderSize+2] ^= 0xff // flip a payload bit
	if _, _, err := readMessage(bufio.NewReader(bytes.NewReader(raw)), nil); err == nil {
		t.Fatal("corrupted frame decoded cleanly")
	}
}

func TestWireRejectsTrailingBytes(t *testing.T) {
	payload := encodePayload(nil, &message{typ: msgPing})
	payload = append(payload, 0x01)
	if _, err := decodePayload(payload); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

// --- catalog ---

func TestCatalogReopen(t *testing.T) {
	dir := t.TempDir()
	c, entries, err := OpenCatalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("fresh catalog has %d entries", len(entries))
	}
	must := func(e CatalogEntry) {
		t.Helper()
		if err := c.AppendBatch([]CatalogEntry{e}); err != nil {
			t.Fatal(err)
		}
	}
	must(CatalogEntry{Name: "a", TypeName: "Account", Scheme: "hybrid"})
	must(CatalogEntry{Name: "b", TypeName: "Counter", Scheme: "readwrite"})
	must(CatalogEntry{Name: "a", TypeName: "Account", Scheme: "commutativity"}) // scheme switch
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c2, entries, err := OpenCatalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if len(entries) != 2 {
		t.Fatalf("reopened catalog has %d entries, want 2 (last-wins dedupe)", len(entries))
	}
	if entries[0].Name != "a" || entries[0].Scheme != "commutativity" {
		t.Fatalf("entry 0 = %+v, want a at commutativity (last record wins, first-seen order)", entries[0])
	}
	if entries[1].Name != "b" || entries[1].TypeName != "Counter" {
		t.Fatalf("entry 1 = %+v", entries[1])
	}
}

func TestCatalogTornTailIgnored(t *testing.T) {
	dir := t.TempDir()
	c, _, err := OpenCatalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AppendBatch([]CatalogEntry{{Name: "a", TypeName: "Account", Scheme: "hybrid"}}); err != nil {
		t.Fatal(err)
	}
	_ = c.Close()
	// Simulate a crash mid-append: garbage half-frame at the tail.
	f, err := os.OpenFile(filepath.Join(dir, catalogFile), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = f.Write([]byte{9, 0, 0, 0, 1, 2})
	_ = f.Close()

	c2, entries, err := OpenCatalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name != "a" {
		t.Fatalf("after torn tail: %+v, want the one intact entry", entries)
	}
	// The tail was truncated, so the next append lands on a frame boundary.
	if err := c2.AppendBatch([]CatalogEntry{{Name: "b", TypeName: "Counter", Scheme: "hybrid"}}); err != nil {
		t.Fatal(err)
	}
	_ = c2.Close()
	_, entries, err = OpenCatalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("post-truncation append lost: %+v", entries)
	}
}

// TestCatalogTornBatch: a crash in the middle of a batch's single write
// leaves the batch's intact frames and a torn one; the catalog reopens with
// that prefix, and the client registering the whole batch again (the shard
// never acknowledged it) makes every entry durable.
func TestCatalogTornBatch(t *testing.T) {
	dir := t.TempDir()
	c, _, err := OpenCatalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	first := []CatalogEntry{{Name: "a", TypeName: "Account", Scheme: "hybrid"}, {Name: "b", TypeName: "Counter", Scheme: "hybrid"}}
	second := []CatalogEntry{{Name: "c", TypeName: "Queue", Scheme: "hybrid"}, {Name: "d", TypeName: "Set", Scheme: "readwrite"}, {Name: "e", TypeName: "File", Scheme: "hybrid"}}
	if err := c.AppendBatch(first); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, catalogFile)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	firstEnd := st.Size()
	if err := c.AppendBatch(second); err != nil {
		t.Fatal(err)
	}
	_ = c.Close()
	// Cut the second batch inside its second frame: c survives, d is torn.
	frame0 := codec.HeaderSize + len(codec.AppendString(codec.AppendString(codec.AppendString(nil, "c"), "Queue"), "hybrid"))
	if err := os.Truncate(path, firstEnd+int64(frame0)+codec.HeaderSize+2); err != nil {
		t.Fatal(err)
	}

	cat, entries, err := OpenCatalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cat.Close() })
	if len(entries) != 3 || entries[0].Name != "a" || entries[1].Name != "b" || entries[2].Name != "c" {
		t.Fatalf("torn batch reopened as %+v, want the intact prefix a, b, c", entries)
	}
	sys := core.NewSystem(core.Options{Clock: tstamp.NewNodeClock(0, 2), ExternalTimestamps: true})
	for _, e := range entries {
		if _, err := RegisterObject(sys, e.Name, e.TypeName, e.Scheme); err != nil {
			t.Fatal(err)
		}
	}
	addr, _ := serveSystem(t, sys, 0, 1, cat)
	cl := dialTest(t, addr, 0, 1, ClientOptions{})
	cl.HoldRegistrations()
	for _, e := range append(first, second...) {
		if err := cl.Register(e.Name, e.TypeName, e.Scheme); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.SendHeldRegistrations(); err != nil {
		t.Fatalf("registering the torn batch again: %v", err)
	}
	if o := sys.LookupObject("d"); o == nil || o.Scheme() != "readwrite" {
		t.Fatalf("object d after re-registration: %v", o)
	}
	_ = cat.Close()
	_, entries, err = OpenCatalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 5 || entries[3].Name != "d" || entries[4].Name != "e" {
		t.Fatalf("catalog after re-registration = %+v, want a through e", entries)
	}
}

// TestCatalogRefusesAfterFailedWrite: once a write fails, every later batch
// is refused, since its frames would sit behind a possibly torn one that the
// loader stops at.
func TestCatalogRefusesAfterFailedWrite(t *testing.T) {
	dir := t.TempDir()
	c, _, err := OpenCatalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ok := []CatalogEntry{{Name: "a", TypeName: "Account", Scheme: "hybrid"}}
	if err := c.AppendBatch(ok); err != nil {
		t.Fatal(err)
	}
	rw := c.f
	ro, err := os.Open(filepath.Join(dir, catalogFile))
	if err != nil {
		t.Fatal(err)
	}
	c.f = ro // the next write fails
	if err := c.AppendBatch([]CatalogEntry{{Name: "b", TypeName: "Account", Scheme: "hybrid"}}); err == nil {
		t.Fatal("append through a read-only file succeeded")
	}
	c.f = rw
	_ = ro.Close()
	if err := c.AppendBatch([]CatalogEntry{{Name: "c", TypeName: "Account", Scheme: "hybrid"}}); err == nil {
		t.Fatal("append after a failed write succeeded")
	}
}

// TestCatalogSchemeSwitchDurable: a scheme switch over the wire — SetScheme,
// or a re-registration under another scheme — survives a restart.
func TestCatalogSchemeSwitchDurable(t *testing.T) {
	dir := t.TempDir()
	open := func() (*core.System, *Catalog, *Server, string) {
		t.Helper()
		cat, entries, err := OpenCatalog(dir)
		if err != nil {
			t.Fatal(err)
		}
		sys := core.NewSystem(core.Options{Clock: tstamp.NewNodeClock(0, 2), ExternalTimestamps: true})
		for _, e := range entries {
			if _, err := RegisterObject(sys, e.Name, e.TypeName, e.Scheme); err != nil {
				t.Fatal(err)
			}
		}
		addr, srv := serveSystem(t, sys, 0, 1, cat)
		return sys, cat, srv, addr
	}

	_, cat, srv, addr := open()
	cl := dialTest(t, addr, 0, 1, ClientOptions{})
	for _, name := range []string{"acct", "other"} {
		if err := cl.Register(name, "Account", "hybrid"); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.SetScheme("acct", "commutativity"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Register("other", "Account", "readwrite"); err != nil {
		t.Fatal(err)
	}
	_ = cl.Close()
	srv.Shutdown(time.Second)
	if err := cat.Close(); err != nil {
		t.Fatal(err)
	}

	sys, cat, _, _ := open()
	t.Cleanup(func() { _ = cat.Close() })
	for name, want := range map[string]string{"acct": "commutativity", "other": "readwrite"} {
		o := sys.LookupObject(histories.ObjID(name))
		if o == nil {
			t.Fatalf("%s missing after restart", name)
		}
		if got := o.Scheme(); got != want {
			t.Errorf("%s came back under %s, want %s", name, got, want)
		}
	}
}

// TestRegisterBatchChunks: a batch larger than one message's budget goes out
// as several register messages, in order, each acknowledged before the
// next; a refused chunk stops the rest.
func TestRegisterBatchChunks(t *testing.T) {
	defer func(n int) { registerChunkBytes = n }(registerChunkBytes)
	registerChunkBytes = 1 // one entry per message
	addr, srv := startShard(t, 0, 1)
	if _, err := RegisterObject(srv.System(), "x", "Account", "hybrid"); err != nil {
		t.Fatal(err)
	}
	c := dialTest(t, addr, 0, 1, ClientOptions{})
	c.HoldRegistrations()
	for _, e := range []CatalogEntry{{"a", "Counter", "hybrid"}, {"x", "Counter", "hybrid"}, {"b", "Counter", "hybrid"}} {
		if err := c.Register(e.Name, e.TypeName, e.Scheme); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.SendHeldRegistrations(); err == nil || !strings.Contains(err.Error(), `"x" already registered as Account`) {
		t.Fatalf("SendHeldRegistrations = %v, want the clash on x", err)
	}
	if srv.System().LookupObject("a") == nil || srv.System().LookupObject("b") != nil {
		t.Fatal("want a registered by the first chunk and b never sent after the refused one")
	}
}

func TestDecodeRegistrationsRejectsMalformed(t *testing.T) {
	for _, ids := range [][]string{
		{"a", "Account"},
		{"a", "Account", "hybrid", "b"},
		{"", "Account", "hybrid"},
		{"a", "Account", "hybrid", "", "Counter", "hybrid"},
		{"a", "Account", "hybrid", "a", "Account", "readwrite"},
	} {
		if _, err := decodeRegistrations(ids); err == nil {
			t.Errorf("decodeRegistrations(%q) accepted a malformed list", ids)
		}
	}
	in := []CatalogEntry{{Name: "a", TypeName: "Account", Scheme: "hybrid"}, {Name: "b", TypeName: "Counter"}}
	out, err := decodeRegistrations(encodeRegistrations(in))
	if err != nil || len(out) != 2 || out[0] != in[0] || out[1] != in[1] {
		t.Fatalf("registration batch round trip = %+v, %v; want %+v", out, err, in)
	}
}

// --- loopback client/server ---

// startShard serves a fresh volatile shard system on loopback, cleaned up
// with the test.
func startShard(t *testing.T, shard, shards int) (string, *Server) {
	t.Helper()
	sys := core.NewSystem(core.Options{
		Clock:              tstamp.NewNodeClock(shard, shards+1),
		ExternalTimestamps: true,
		LockWait:           250 * time.Millisecond,
	})
	return serveSystem(t, sys, shard, shards, nil)
}

func serveSystem(t *testing.T, sys *core.System, shard, shards int, cat *Catalog) (string, *Server) {
	t.Helper()
	// Every loopback test's teardown — clients closed, this server shut
	// down — must leave no goroutine behind.
	checkGoroutines(t)
	srv, err := NewServer(sys, shard, shards, ServerOptions{Catalog: cat})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { srv.Shutdown(time.Second) })
	return ln.Addr().String(), srv
}

func dialTest(t *testing.T, addr string, shard, shards int, opts ClientOptions) *ShardClient {
	t.Helper()
	if opts.Timeout == 0 {
		opts.Timeout = 2 * time.Second
	}
	c, err := DialShard(addr, shard, shards, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func TestFastPathCommitAndSnapshotRead(t *testing.T) {
	addr, _ := startShard(t, 0, 1)
	c := dialTest(t, addr, 0, 1, ClientOptions{})

	if err := c.Register("ctr", "Counter", "hybrid"); err != nil {
		t.Fatal(err)
	}
	// Registration is idempotent; a type mismatch is not.
	if err := c.Register("ctr", "Counter", "hybrid"); err != nil {
		t.Fatalf("re-register: %v", err)
	}
	if err := c.Register("ctr", "Account", "hybrid"); err == nil {
		t.Fatal("type mismatch accepted")
	}

	ctx := context.Background()
	if _, err := c.Call(ctx, "T1", "ctr", adt.IncInv(5)); err != nil {
		t.Fatal(err)
	}
	ts, err := c.Commit(ctx, "T1")
	if err != nil {
		t.Fatal(err)
	}
	if ts == 0 {
		t.Fatal("fast-path commit returned zero timestamp")
	}

	bound, err := c.ReadBegin(ctx, "R1")
	if err != nil {
		t.Fatal(err)
	}
	if bound < ts {
		t.Fatalf("read bound %d below committed timestamp %d", bound, ts)
	}
	if err := c.ReadActivate(ctx, "R1", bound); err != nil {
		t.Fatal(err)
	}
	res, err := c.ReadCall(ctx, "R1", "ctr", adt.CtrReadInv())
	if err != nil {
		t.Fatal(err)
	}
	if res != adt.Itoa(5) {
		t.Fatalf("snapshot read %q, want %q", res, adt.Itoa(5))
	}
	if err := c.ReadComplete(ctx, "R1", true); err != nil {
		t.Fatal(err)
	}

	snap, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Committed < 1 {
		t.Fatalf("shard stats: %d committed, want at least the update tx", snap.Committed)
	}
}

func TestAbortRollsBack(t *testing.T) {
	addr, _ := startShard(t, 0, 1)
	c := dialTest(t, addr, 0, 1, ClientOptions{})
	if err := c.Register("ctr", "Counter", "hybrid"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := c.Call(ctx, "T1", "ctr", adt.IncInv(9)); err != nil {
		t.Fatal(err)
	}
	if err := c.Abort(ctx, "T1"); err != nil {
		t.Fatal(err)
	}
	// The abort is visible: a new transaction reads zero.
	res, err := c.Call(ctx, "T2", "ctr", adt.CtrReadInv())
	if err != nil {
		t.Fatal(err)
	}
	if res != adt.Itoa(0) {
		t.Fatalf("read %q after abort, want 0", res)
	}
	if _, err := c.Commit(ctx, "T2"); err != nil {
		t.Fatal(err)
	}
	// Operating on a completed transaction fails with ErrTxDone across the
	// wire.
	if _, err := c.Call(ctx, "T1", "ctr", adt.IncInv(1)); !errors.Is(err, core.ErrTxDone) {
		t.Fatalf("call on aborted tx: %v, want ErrTxDone", err)
	}
}

func TestPrepareDecideCommits(t *testing.T) {
	addr, _ := startShard(t, 0, 1)
	var acks atomic.Int32
	c := dialTest(t, addr, 0, 1, ClientOptions{DecisionAcked: func(histories.TxID) { acks.Add(1) }})
	if err := c.Register("ctr", "Counter", "hybrid"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := c.Call(ctx, "T1", "ctr", adt.IncInv(3)); err != nil {
		t.Fatal(err)
	}
	tr := c.Transport()
	c.StampParticipants("T1", 2)
	lower, vote, ok := tr.StartPrepare(ctx, "T1", time.Second)()
	if !ok || !vote {
		t.Fatalf("prepare: vote=%v ok=%v", vote, ok)
	}
	ts := lower + 1000
	// A decide's reply is owed on its connection; a ping, the next request
	// on it, reads the acknowledgement.
	decide := func(want int32, what string) {
		t.Helper()
		if !tr.StartCommit(ctx, "T1", ts, time.Second)() {
			t.Fatalf("%s not sent", what)
		}
		if err := c.Ping(ctx); err != nil {
			t.Fatal(err)
		}
		if got := acks.Load(); got != want {
			t.Fatalf("%s failed: %d acknowledgements, want %d", what, got, want)
		}
	}
	decide(1, "decision delivery")
	// Redelivery of the same decision acknowledges idempotently.
	decide(2, "decision redelivery")
	res, err := c.Call(ctx, "T2", "ctr", adt.CtrReadInv())
	if err != nil {
		t.Fatal(err)
	}
	if res != adt.Itoa(3) {
		t.Fatalf("read %q after decided commit, want 3", res)
	}
	if _, err := c.Commit(ctx, "T2"); err != nil {
		t.Fatal(err)
	}
}

func TestPreparedBranchSurvivesConnectionLoss(t *testing.T) {
	addr, srv := startShard(t, 0, 1)
	c := dialTest(t, addr, 0, 1, ClientOptions{})
	if err := c.Register("ctr", "Counter", "hybrid"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := c.Call(ctx, "T1", "ctr", adt.IncInv(4)); err != nil {
		t.Fatal(err)
	}
	if _, vote, ok := c.Transport().StartPrepare(ctx, "T1", time.Second)(); !vote || !ok {
		t.Fatal("prepare refused")
	}
	// The coordinator dies: its connections close.  The prepared branch
	// must stay alive, disowned — presumed abort forbids unilateral abort.
	_ = c.Close()
	deadline := time.Now().Add(time.Second)
	for srvHasTx(srv, "T1") == false && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if !srvHasTx(srv, "T1") {
		t.Fatal("prepared branch dropped with its connection")
	}

	// A new client delivers the decision on a fresh connection; a ping
	// reads its owed acknowledgement.
	var acks atomic.Int32
	c2 := dialTest(t, addr, 0, 1, ClientOptions{DecisionAcked: func(histories.TxID) { acks.Add(1) }})
	if !c2.Transport().StartCommit(ctx, "T1", 50_001, time.Second)() {
		t.Fatal("decision on fresh connection not sent")
	}
	if err := c2.Ping(ctx); err != nil {
		t.Fatal(err)
	}
	if acks.Load() != 1 {
		t.Fatal("decision on fresh connection refused")
	}
	res, err := c2.Call(ctx, "T2", "ctr", adt.CtrReadInv())
	if err != nil {
		t.Fatal(err)
	}
	if res != adt.Itoa(4) {
		t.Fatalf("read %q, want 4", res)
	}
	if _, err := c2.Commit(ctx, "T2"); err != nil {
		t.Fatal(err)
	}
}

// srvHasTx reports whether the server still tracks a branch of id.
func srvHasTx(s *Server, id histories.TxID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.branches.live[id]
	return ok
}

func TestUnpreparedBranchAbortsWithConnection(t *testing.T) {
	addr, _ := startShard(t, 0, 1)
	c := dialTest(t, addr, 0, 1, ClientOptions{})
	if err := c.Register("ctr", "Counter", "hybrid"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := c.Call(ctx, "T1", "ctr", adt.IncInv(1)); err != nil {
		t.Fatal(err)
	}
	_ = c.Close() // dies without preparing: the server aborts the branch

	c2 := dialTest(t, addr, 0, 1, ClientOptions{})
	// The lock T1 held is released: a fresh transaction gets through
	// within the lock-wait bound.
	if _, err := c2.Call(ctx, "T2", "ctr", adt.IncInv(2)); err != nil {
		t.Fatalf("lock leaked from dead connection: %v", err)
	}
	if _, err := c2.Commit(ctx, "T2"); err != nil {
		t.Fatal(err)
	}
}

// TestReadBranchFreesSlotWithConnection: read branches — one still on its
// provisional pin, one activated — die with their connection, and their
// registry slots are freed with them.  A leaked slot would freeze the
// shard's compaction horizon for good: commits would pile up unforgotten.
func TestReadBranchFreesSlotWithConnection(t *testing.T) {
	addr, srv := startShard(t, 0, 1)
	c := dialTest(t, addr, 0, 1, ClientOptions{})
	if err := c.Register("ctr", "Counter", "hybrid"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := c.ReadBegin(ctx, "R1"); err != nil {
		t.Fatal(err)
	}
	bound, err := c.ReadBegin(ctx, "R2")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ReadActivate(ctx, "R2", bound+1); err != nil {
		t.Fatal(err)
	}
	commit := func(c *ShardClient, tx histories.TxID) {
		t.Helper()
		if _, err := c.Call(ctx, tx, "ctr", adt.IncInv(1)); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Commit(ctx, tx); err != nil {
			t.Fatal(err)
		}
	}
	commit(c, "T1")
	ctr := srv.System().LookupObject("ctr")
	if n := ctr.UnforgottenLen(); n != 1 {
		t.Fatalf("unforgotten = %d with two read branches open, want 1", n)
	}
	_ = c.Close() // dies without completing either branch

	// The server drops the connection on its own schedule; folding rides
	// the commit path, so commit until the horizon has moved.
	c2 := dialTest(t, addr, 0, 1, ClientOptions{})
	deadline := time.Now().Add(5 * time.Second)
	for i := 2; ; i++ {
		commit(c2, histories.TxID(fmt.Sprintf("T%d", i)))
		if ctr.UnforgottenLen() == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("unforgotten = %d: a read branch's slot outlived its connection", ctr.UnforgottenLen())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// dialRaw opens a bare connection to addr and returns its round trip:
// one request written, its reply read.
func dialRaw(t *testing.T, addr string) func(message) message {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = nc.Close() })
	r, w := bufio.NewReader(nc), bufio.NewWriter(nc)
	return func(m message) message {
		t.Helper()
		if _, err := writeMessage(w, nil, &m); err != nil {
			t.Fatal(err)
		}
		_ = w.Flush()
		resp, _, err := readMessage(r, nil)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
}

// readShard serves a shard holding one Counter, ctr, and returns its
// address and the object.
func readShard(t *testing.T) (string, *Server, *core.Object) {
	t.Helper()
	addr, srv := startShard(t, 0, 1)
	ctr, err := RegisterObject(srv.System(), "ctr", "Counter", "hybrid")
	if err != nil {
		t.Fatal(err)
	}
	return addr, srv, ctr
}

var (
	rawInc  = message{typ: msgCall, obj: "ctr", a: adt.IncInv(1).Name, b: adt.IncInv(1).Arg}
	rawRead = message{typ: msgReadCall, obj: "ctr", a: adt.CtrReadInv().Name, b: adt.CtrReadInv().Arg}
)

// with returns m naming transaction tx.
func with(m message, tx string) message {
	m.tx = tx
	return m
}

// TestSecondReadBeginRefused: a read begin naming a live read branch is
// refused and leaves the first branch in place, so completing the reader
// releases the one pin it holds, and later commits fold.  A second begin
// that replaced the first branch would strand its provisional pin, which
// holds every horizon: no commit on the shard would fold again.
func TestSecondReadBeginRefused(t *testing.T) {
	addr, _, ctr := readShard(t)
	rt := dialRaw(t, addr)
	begin := rt(message{typ: msgReadBegin, tx: "R1"})
	if begin.typ != msgTS {
		t.Fatalf("read begin: %+v", begin)
	}
	if resp := rt(message{typ: msgReadBegin, tx: "R1"}); resp.typ != msgErr {
		t.Fatalf("second read begin of a live R1: %+v, want refused", resp)
	}
	if resp := rt(message{typ: msgReadActivate, tx: "R1", ts: begin.ts + 1}); resp.typ != msgOK {
		t.Fatalf("activate: %+v", resp)
	}
	if resp := rt(message{typ: msgReadComplete, tx: "R1", flag: 1}); resp.typ != msgOK {
		t.Fatalf("complete: %+v", resp)
	}
	for i := range 50 {
		tx := fmt.Sprintf("T%d", i)
		if resp := rt(with(rawInc, tx)); resp.typ != msgRes {
			t.Fatalf("call %s: %+v", tx, resp)
		}
		if resp := rt(message{typ: msgCommit, tx: tx}); resp.typ != msgTS {
			t.Fatalf("commit %s: %+v", tx, resp)
		}
	}
	if n := ctr.Stats().Unforgotten; n != 0 {
		t.Fatalf("unforgotten = %d after the reader completed, want 0: a read pin was stranded", n)
	}
}

// TestReadBranchOwnedByItsConnection: only the connection that began a
// read branch reads through it or completes it.  Another connection's
// call and complete are refused and leave the branch to its owner.
func TestReadBranchOwnedByItsConnection(t *testing.T) {
	addr, _, _ := readShard(t)
	owner, other := dialRaw(t, addr), dialRaw(t, addr)
	begin := owner(message{typ: msgReadBegin, tx: "R1"})
	if resp := owner(message{typ: msgReadActivate, tx: "R1", ts: begin.ts + 1}); resp.typ != msgOK {
		t.Fatalf("activate: %+v", resp)
	}
	if resp := other(with(rawRead, "R1")); resp.typ != msgErr {
		t.Fatalf("read call from another connection: %+v, want refused", resp)
	}
	if resp := other(message{typ: msgReadComplete, tx: "R1", flag: 1}); resp.typ != msgErr {
		t.Fatalf("complete from another connection: %+v, want refused", resp)
	}
	if resp := owner(with(rawRead, "R1")); resp.typ != msgRes {
		t.Fatalf("owner's read call after the refusals: %+v", resp)
	}
	if resp := owner(message{typ: msgReadComplete, tx: "R1", flag: 1}); resp.typ != msgOK {
		t.Fatalf("owner's complete: %+v", resp)
	}
}

// TestCallOnReadBranchRefused: an update call naming a live read branch
// is refused, from its owner or any other connection, instead of opening
// an update branch under the same id.  The read branch stays listed as
// reading.
func TestCallOnReadBranchRefused(t *testing.T) {
	addr, srv, _ := readShard(t)
	owner, other := dialRaw(t, addr), dialRaw(t, addr)
	if resp := owner(message{typ: msgReadBegin, tx: "R1"}); resp.typ != msgTS {
		t.Fatalf("read begin: %+v", resp)
	}
	for name, rt := range map[string]func(message) message{"owner": owner, "other": other} {
		if resp := rt(with(rawInc, "R1")); resp.typ != msgErr {
			t.Fatalf("update call on read branch R1 from its %s: %+v, want refused", name, resp)
		}
	}
	if bs := srv.Branches(); len(bs) != 1 || bs[0].ID != "R1" || bs[0].State != "reading" || bs[0].AgeMs < 0 || bs[0].AgeMs > 60000 {
		t.Fatalf("branches %+v, want R1 reading since its begin", bs)
	}
}

func TestDialRejectsWrongTopology(t *testing.T) {
	addr, _ := startShard(t, 1, 4)
	if _, err := DialShard(addr, 0, 4, ClientOptions{Timeout: time.Second}); err == nil {
		t.Fatal("wrong shard index accepted")
	}
	if _, err := DialShard(addr, 1, 2, ClientOptions{Timeout: time.Second}); err == nil {
		t.Fatal("wrong shard count accepted")
	}
	c := dialTest(t, addr, 1, 4, ClientOptions{})
	if err := c.Ping(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// A hung peer — accepts, handshakes, then never answers again — must fail
// round trips by deadline, vote "unreachable" in prepare, and never hang
// the caller (the satellite-1 contract: hung peer → timeout → abort,
// never torn).
func TestHungPeerTimesOut(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func(nc net.Conn) {
				defer nc.Close()
				r := bufio.NewReader(nc)
				w := bufio.NewWriter(nc)
				m, _, err := readMessage(r, nil)
				if err != nil || m.typ != msgHello {
					return
				}
				resp := message{typ: msgHelloResp, n: protoVersion, ts: 0, flag: stateServing, ids: []string{"1"}}
				if _, err := writeMessage(w, nil, &resp); err != nil {
					return
				}
				_ = w.Flush()
				// Swallow everything else, answering nothing.
				for {
					if _, _, err := readMessage(r, nil); err != nil {
						return
					}
				}
			}(nc)
		}
	}()

	c, err := DialShard(ln.Addr().String(), 0, 1, ClientOptions{Timeout: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	start := time.Now()
	if _, err := c.Call(context.Background(), "T1", "ctr", adt.IncInv(1)); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("call on hung peer: %v, want ErrUnavailable", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("timeout took %s", d)
	}

	if _, vote, ok := c.Transport().StartPrepare(context.Background(), "T2", 300*time.Millisecond)(); vote || ok {
		t.Fatalf("prepare on hung peer: vote=%v ok=%v, want unreachable", vote, ok)
	}

	// A context deadline shorter than the client timeout wins.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start = time.Now()
	_, err = c.Call(ctx, "T3", "ctr", adt.IncInv(1))
	if err == nil {
		t.Fatal("call with expired deadline succeeded")
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("context deadline ignored: took %s", d)
	}
}

// --- recovery over the wire ---

// prepareCrashedShard builds a durable shard directory holding one
// prepared-but-undecided branch ("T-pending" incremented ctr by 7) plus
// one committed transaction, as a kill -9 mid-2PC would leave it.
func prepareCrashedShard(t *testing.T, dir string) {
	t.Helper()
	sys, err := core.OpenSystem(core.Options{
		Clock:              tstamp.NewNodeClock(0, 2),
		ExternalTimestamps: true,
		Durability:         &core.Durability{Dir: filepath.Join(dir, "wal"), Sync: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	cat, _, err := OpenCatalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.AppendBatch([]CatalogEntry{{Name: "ctr", TypeName: "Counter", Scheme: "hybrid"}}); err != nil {
		t.Fatal(err)
	}
	_ = cat.Close()
	obj, err := RegisterObject(sys, "ctr", "Counter", "hybrid")
	if err != nil {
		t.Fatal(err)
	}

	tx := sys.BeginBranch(context.Background(), "T-done")
	if _, err := obj.Call(tx, adt.IncInv(100)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	pend := sys.BeginBranch(context.Background(), "T-pending")
	if _, err := obj.Call(pend, adt.IncInv(7)); err != nil {
		t.Fatal(err)
	}
	pend.SetParticipants(2)
	if _, err := pend.Prepare(); err != nil {
		t.Fatal(err)
	}
	sys.CrashLog() // kill -9: buffers dropped, nothing cleanly closed
}

// reopenShard reopens a crashed shard directory the way hybrid-shardd
// does: system, catalog replay, then the server.
func reopenShard(t *testing.T, dir string) (string, *Server, *core.System) {
	t.Helper()
	sys, err := core.OpenSystem(core.Options{
		Clock:              tstamp.NewNodeClock(0, 2),
		ExternalTimestamps: true,
		Durability:         &core.Durability{Dir: filepath.Join(dir, "wal"), Sync: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	cat, entries, err := OpenCatalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cat.Close() })
	for _, e := range entries {
		if _, err := RegisterObject(sys, e.Name, e.TypeName, e.Scheme); err != nil {
			t.Fatal(err)
		}
	}
	addr, srv := serveSystem(t, sys, 0, 1, cat)
	return addr, srv, sys
}

func TestRecoveryResolvedByLedgeredDecision(t *testing.T) {
	dir := t.TempDir()
	prepareCrashedShard(t, dir)
	addr, srv, _ := reopenShard(t, dir)
	if !srv.Recovering() {
		t.Fatal("reopened shard not recovering despite pending branch")
	}

	// While recovering, a dialer with no ledger knowledge of other txs can
	// still probe: pending status is reported.
	c := dialTest(t, addr, 0, 1, ClientOptions{
		DecisionFor: func(tx histories.TxID) (histories.Timestamp, bool) {
			if tx == "T-pending" {
				return 90_001, true
			}
			return 0, false
		},
	})
	// The handshake resolved the branch: the shard serves again.
	if srv.Recovering() {
		t.Fatal("shard still recovering after handshake resolution")
	}
	res, err := c.Call(context.Background(), "T-new", "ctr", adt.CtrReadInv())
	if err != nil {
		t.Fatal(err)
	}
	if res != adt.Itoa(107) {
		t.Fatalf("recovered value %q, want 107 (100 committed + 7 decided)", res)
	}
	if _, err := c.Commit(context.Background(), "T-new"); err != nil {
		t.Fatal(err)
	}
}

func TestRecoveryPresumedAbort(t *testing.T) {
	dir := t.TempDir()
	prepareCrashedShard(t, dir)
	addr, srv, sys := reopenShard(t, dir)

	// No decision anywhere: connecting presumes abort for the pending
	// branch.
	c := dialTest(t, addr, 0, 1, ClientOptions{})
	if srv.Recovering() {
		t.Fatal("shard still recovering after presumed abort")
	}
	res, err := c.Call(context.Background(), "T-new", "ctr", adt.CtrReadInv())
	if err != nil {
		t.Fatal(err)
	}
	if res != adt.Itoa(100) {
		t.Fatalf("recovered value %q, want 100 (pending leg presumed aborted)", res)
	}
	if _, err := c.Commit(context.Background(), "T-new"); err != nil {
		t.Fatal(err)
	}

	// Durable across another restart: reopen once more, nothing pending.
	_ = c.Close()
	srv.Shutdown(time.Second)
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	_, srv2, _ := reopenShard(t, dir)
	if srv2.Recovering() {
		t.Fatal("resolution was not durable")
	}
}

func TestRecoveringShardGatesNewWork(t *testing.T) {
	dir := t.TempDir()
	prepareCrashedShard(t, dir)
	addr, _, _ := reopenShard(t, dir)

	// Speak the protocol manually so the pending branch stays unresolved.
	rt := dialRaw(t, addr)
	hello := rt(message{typ: msgHello, n: protoVersion})
	if hello.flag != stateRecovering {
		t.Fatalf("handshake state %d, want recovering", hello.flag)
	}
	pending := rt(message{typ: msgPending})
	if len(pending.ids) != 1 || pending.ids[0] != "T-pending" {
		t.Fatalf("pending = %v, want [T-pending]", pending.ids)
	}
	// New work is refused while recovering.
	call := rt(message{typ: msgCall, tx: "T-new", obj: "ctr", a: "Inc", b: "1"})
	if call.typ != msgErr || call.flag != errCodeRecovering {
		t.Fatalf("call while recovering: %+v, want recovering error", call)
	}
	if read := rt(message{typ: msgReadBegin, tx: "R-new"}); read.typ != msgErr || read.flag != errCodeRecovering {
		t.Fatalf("read begin while recovering: %+v, want recovering error", read)
	}
	// Resolving the branch opens the gate.
	if resp := rt(message{typ: msgAbort, tx: "T-pending"}); resp.typ != msgOK {
		t.Fatalf("abort resolution: %+v", resp)
	}
	if resp := rt(message{typ: msgCall, tx: "T-new", obj: "ctr", a: "Inc", b: "1"}); resp.typ != msgRes {
		t.Fatalf("call after resolution: %+v", resp)
	}
	if resp := rt(message{typ: msgAbort, tx: "T-new"}); resp.typ != msgOK {
		t.Fatalf("cleanup abort: %+v", resp)
	}
}

// A recovering shard's pending branch that belongs to ANOTHER client must
// not be presumed aborted by whoever connects first: the owner's ledger
// may hold a commit decision the stranger cannot see, and aborting the
// branch would tear that transaction across shards.  The stranger's dial
// succeeds but leaves the branch pending (the shard keeps refusing new
// work); the owner's connection then resolves it.
func TestForeignPendingBranchLeftForItsOwner(t *testing.T) {
	dir := t.TempDir()
	prepareCrashedShard(t, dir)
	addr, srv, _ := reopenShard(t, dir)

	stranger := dialTest(t, addr, 0, 1, ClientOptions{
		Owns: func(histories.TxID) bool { return false },
	})
	if !srv.Recovering() {
		t.Fatal("a non-owning client drove the shard out of recovery")
	}
	srv.mu.Lock()
	b := srv.branches.live["T-pending"]
	stillPending := b != nil && b.state == branchRecovered
	srv.mu.Unlock()
	if !stillPending {
		t.Fatal("foreign branch resolved by a client that does not own it")
	}
	if _, err := stranger.Call(context.Background(), "T-x", "ctr", adt.CtrReadInv()); !errors.Is(err, ErrRecovering) {
		t.Fatalf("call while blocked on a foreign branch: %v, want ErrRecovering", err)
	}

	// The owner reconnects with its ledgered decision: the branch commits
	// and the shard serves again.
	owner := dialTest(t, addr, 0, 1, ClientOptions{
		DecisionFor: func(tx histories.TxID) (histories.Timestamp, bool) {
			if tx == "T-pending" {
				return 90_001, true
			}
			return 0, false
		},
		Owns: func(tx histories.TxID) bool { return tx == "T-pending" },
	})
	if srv.Recovering() {
		t.Fatal("shard still recovering after the owner resolved its branch")
	}
	res, err := owner.Call(context.Background(), "T-new", "ctr", adt.CtrReadInv())
	if err != nil {
		t.Fatal(err)
	}
	if res != adt.Itoa(107) {
		t.Fatalf("recovered value %q, want 107 (100 committed + 7 decided)", res)
	}
	if _, err := owner.Commit(context.Background(), "T-new"); err != nil {
		t.Fatal(err)
	}
}

// An owned branch with no ledgered decision is still presumed aborted —
// the ownership scoping must not weaken the presumed-abort rule for the
// coordinator's own crashed transactions.
func TestOwnedPendingBranchPresumedAborted(t *testing.T) {
	dir := t.TempDir()
	prepareCrashedShard(t, dir)
	addr, srv, _ := reopenShard(t, dir)

	c := dialTest(t, addr, 0, 1, ClientOptions{
		Owns: func(tx histories.TxID) bool { return tx == "T-pending" },
	})
	if srv.Recovering() {
		t.Fatal("owner with no decision did not presume abort")
	}
	res, err := c.Call(context.Background(), "T-new", "ctr", adt.CtrReadInv())
	if err != nil {
		t.Fatal(err)
	}
	if res != adt.Itoa(100) {
		t.Fatalf("recovered value %q, want 100 (owned leg presumed aborted)", res)
	}
	if _, err := c.Commit(context.Background(), "T-new"); err != nil {
		t.Fatal(err)
	}
}

// A decided commit whose durable apply fails (the shard's log died) must
// not be acknowledged or remembered as committed: the branch entry stays,
// status probes answer pending — never a lying committed — and every
// redelivery is refused until a restart recovers the branch from its
// prepared record.
func TestDecideFailureKeepsBranchPending(t *testing.T) {
	dir := t.TempDir()
	sys, err := core.OpenSystem(core.Options{
		Clock:              tstamp.NewNodeClock(0, 2),
		ExternalTimestamps: true,
		Durability:         &core.Durability{Dir: filepath.Join(dir, "wal"), Sync: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RegisterObject(sys, "ctr", "Counter", "hybrid"); err != nil {
		t.Fatal(err)
	}
	addr, srv := serveSystem(t, sys, 0, 1, nil)

	var acks atomic.Int32
	c := dialTest(t, addr, 0, 1, ClientOptions{DecisionAcked: func(histories.TxID) { acks.Add(1) }})
	ctx := context.Background()
	// decide sends the decision and has its owed reply read by the next
	// request on the connection, a ping.
	decide := func(ts histories.Timestamp) {
		t.Helper()
		tr := c.Transport()
		tr.StartCommit(ctx, "T1", ts, time.Second)()
		if err := c.Ping(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Call(ctx, "T1", "ctr", adt.IncInv(5)); err != nil {
		t.Fatal(err)
	}
	tr := c.Transport()
	lower, vote, ok := tr.StartPrepare(ctx, "T1", time.Second)()
	if !vote || !ok {
		t.Fatal("prepare refused")
	}

	// The shard's log dies under it, as a full disk or pulled volume
	// would; the decided commit can no longer be made durable.
	sys.CrashLog()
	ts := lower + 1000

	if decide(ts); acks.Load() != 0 {
		t.Fatal("undurable commit decision acknowledged")
	}
	if !srvHasTx(srv, "T1") {
		t.Fatal("failed decide dropped the branch entry")
	}
	if _, err := c.probeCommit("T1"); !errors.Is(err, core.ErrOutcomeUnknown) {
		t.Fatalf("probe after failed decide: %v, want still-pending (ErrOutcomeUnknown)", err)
	}
	if decide(ts); acks.Load() != 0 {
		t.Fatal("redelivered undurable decision acknowledged")
	}
	if !srvHasTx(srv, "T1") {
		t.Fatal("redelivery dropped the failed branch entry")
	}
}

func TestCommitOutcomeProbe(t *testing.T) {
	addr, _ := startShard(t, 0, 1)
	c := dialTest(t, addr, 0, 1, ClientOptions{})
	if err := c.Register("ctr", "Counter", "hybrid"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := c.Call(ctx, "T1", "ctr", adt.IncInv(2)); err != nil {
		t.Fatal(err)
	}
	ts, err := c.Commit(ctx, "T1")
	if err != nil {
		t.Fatal(err)
	}
	// probeCommit answers from the outcome ring — the path Commit takes
	// when its response is lost mid-flight.
	got, err := c.probeCommit("T1")
	if err != nil {
		t.Fatalf("probe of committed tx: %v", err)
	}
	if got != ts {
		t.Fatalf("probe timestamp %d, want %d", got, ts)
	}
	if _, err := c.probeCommit("T-nothing"); !errors.Is(err, core.ErrOutcomeUnknown) {
		t.Fatalf("probe of unknown tx: %v, want ErrOutcomeUnknown", err)
	}
}

func TestServerShutdownDrains(t *testing.T) {
	sys := core.NewSystem(core.Options{
		Clock:              tstamp.NewNodeClock(0, 2),
		ExternalTimestamps: true,
	})
	srv, err := NewServer(sys, 0, 1, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	c, err := DialShard(ln.Addr().String(), 0, 1, ClientOptions{Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Register("ctr", "Counter", "hybrid"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Call(context.Background(), "T1", "ctr", adt.IncInv(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Commit(context.Background(), "T1"); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { srv.Shutdown(500 * time.Millisecond); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown hung")
	}
	_ = c.Close()
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	_ = fmt.Sprint() // keep fmt imported if assertions above change
}
