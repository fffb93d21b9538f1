package netproto_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hybridcc"
	"hybridcc/internal/core"
	"hybridcc/internal/netproto"
	"hybridcc/internal/tstamp"
)

// frameCounter relays connections to one shard server and counts the
// register messages clients send through it.
type frameCounter struct {
	ln        net.Listener
	target    string
	registers atomic.Int64

	mu    sync.Mutex
	conns []net.Conn
	wg    sync.WaitGroup
}

func newFrameCounter(t *testing.T, target string) *frameCounter {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fc := &frameCounter{ln: ln, target: target}
	fc.wg.Add(1)
	go fc.accept()
	t.Cleanup(fc.close)
	return fc
}

func (fc *frameCounter) addr() string { return fc.ln.Addr().String() }

func (fc *frameCounter) accept() {
	defer fc.wg.Done()
	for {
		client, err := fc.ln.Accept()
		if err != nil {
			return
		}
		server, err := net.Dial("tcp", fc.target)
		if err != nil {
			_ = client.Close()
			continue
		}
		fc.mu.Lock()
		fc.conns = append(fc.conns, client, server)
		fc.mu.Unlock()
		fc.wg.Add(2)
		go func() {
			defer fc.wg.Done()
			_, _ = io.Copy(client, server)
			_ = client.Close()
		}()
		go func() {
			defer fc.wg.Done()
			fc.relayRequests(client, server)
			_ = server.Close()
		}()
	}
}

// relayRequests forwards client frames to the server one at a time,
// counting those whose payload starts with the register type byte.
func (fc *frameCounter) relayRequests(client, server net.Conn) {
	hdr := make([]byte, netproto.FrameHeaderSize)
	for {
		if _, err := io.ReadFull(client, hdr); err != nil {
			return
		}
		payload := make([]byte, binary.LittleEndian.Uint32(hdr[0:4]))
		if _, err := io.ReadFull(client, payload); err != nil {
			return
		}
		if len(payload) > 0 && payload[0] == netproto.MsgRegister {
			fc.registers.Add(1)
		}
		if _, err := server.Write(append(hdr, payload...)); err != nil {
			return
		}
	}
}

func (fc *frameCounter) close() {
	_ = fc.ln.Close()
	fc.mu.Lock()
	for _, c := range fc.conns {
		_ = c.Close()
	}
	fc.mu.Unlock()
	fc.wg.Wait()
}

// startCountedShards serves n volatile shards on loopback, each behind a
// frame counter, and returns the counters in shard order.
func startCountedShards(t *testing.T, n int) []*frameCounter {
	t.Helper()
	fcs := make([]*frameCounter, n)
	for i := range fcs {
		sys := core.NewSystem(core.Options{
			Clock:              tstamp.NewNodeClock(i, n+1),
			ExternalTimestamps: true,
			LockWait:           time.Second,
		})
		srv, err := netproto.NewServer(sys, i, n, netproto.ServerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go func() { _ = srv.Serve(ln) }()
		t.Cleanup(func() { srv.Shutdown(time.Second) })
		fcs[i] = newFrameCounter(t, ln.Addr().String())
	}
	return fcs
}

func addrsOf(fcs []*frameCounter) []string {
	addrs := make([]string, len(fcs))
	for i, fc := range fcs {
		addrs[i] = fc.addr()
	}
	return addrs
}

func registerFrames(fcs []*frameCounter) []int64 {
	out := make([]int64, len(fcs))
	for i, fc := range fcs {
		out[i] = fc.registers.Load()
	}
	return out
}

func dial(t *testing.T, addrs []string, setup func(*hybridcc.Cluster) error) *hybridcc.Cluster {
	t.Helper()
	c, err := hybridcc.Dial(addrs, setup, hybridcc.WithCommitTimeout(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// TestDialSetupOneRegisterFramePerShard: a setup's registrations reach each
// shard as one message; a registration after Dial is one more.
func TestDialSetupOneRegisterFramePerShard(t *testing.T) {
	fcs := startCountedShards(t, 2)
	var accts []*hybridcc.Account
	c := dial(t, addrsOf(fcs), func(c *hybridcc.Cluster) error {
		for i := 0; i < 1000; i++ {
			a, err := c.NewAccount("a" + strconv.Itoa(i))
			if err != nil {
				return err
			}
			accts = append(accts, a)
		}
		return nil
	})
	if got := registerFrames(fcs); got[0] != 1 || got[1] != 1 {
		t.Fatalf("register frames per shard = %v after a 1000-object setup, want [1 1]", got)
	}
	extra, err := c.NewAccount("extra")
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{1, 1}
	want[c.ShardFor("extra")]++
	if got := registerFrames(fcs); got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("register frames per shard = %v after one more NewAccount, want %v", got, want)
	}
	// Every batched object exists on its shard.
	if err := c.Atomically(func(tx *hybridcc.DTx) error {
		if err := extra.Credit(tx, 1); err != nil {
			return err
		}
		for _, a := range accts[:10] {
			if err := a.Credit(tx, 1); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestDialSetupTransactionFindsQueuedObject: a transaction begun inside
// setup sends its shard's queued registrations ahead of itself.
func TestDialSetupTransactionFindsQueuedObject(t *testing.T) {
	fcs := startCountedShards(t, 2)
	var ctr *hybridcc.Counter
	c := dial(t, addrsOf(fcs), func(c *hybridcc.Cluster) error {
		var err error
		if ctr, err = c.NewCounter("ctr"); err != nil {
			return err
		}
		return c.Atomically(func(tx *hybridcc.DTx) error { return ctr.Inc(tx, 5) })
	})
	var got int64
	if err := c.Snapshot(func(r *hybridcc.DReadTx) error {
		var err error
		got, err = ctr.ReadAt(r)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if n := registerFrames(fcs)[c.ShardFor("ctr")]; n != 1 {
		t.Fatalf("%d register frames on ctr's shard, want 1 (sent ahead of the call, none at setup's end)", n)
	}
}

// TestDialSetupErrorSendsNothing: a setup that fails sends none of its
// registrations, so the names stay free for any type.
func TestDialSetupErrorSendsNothing(t *testing.T) {
	fcs := startCountedShards(t, 2)
	boom := errors.New("boom")
	_, err := hybridcc.Dial(addrsOf(fcs), func(c *hybridcc.Cluster) error {
		for i := 0; i < 10; i++ {
			if _, err := c.NewAccount("a" + strconv.Itoa(i)); err != nil {
				return err
			}
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Dial = %v, want the setup's error", err)
	}
	if got := registerFrames(fcs); got[0] != 0 || got[1] != 0 {
		t.Fatalf("register frames per shard = %v after a failed setup, want none", got)
	}
	dial(t, addrsOf(fcs), func(c *hybridcc.Cluster) error {
		_, err := c.NewCounter("a0")
		return err
	})
}

// flagSpec is a custom type: its behaviour lives in this process only.
func flagSpec() hybridcc.Spec {
	return hybridcc.Spec{
		Name: "Flag",
		Init: func() hybridcc.State { return false },
		Responses: func(s hybridcc.State, inv hybridcc.Invocation) []string {
			if inv.Name == "Get" {
				return []string{strconv.FormatBool(s.(bool))}
			}
			return []string{"Ok"}
		},
		Apply: func(s hybridcc.State, op hybridcc.Op) hybridcc.State {
			if op.Name == "Set" {
				return true
			}
			return s
		},
		Dependency:     func(q, p hybridcc.Op) bool { return q.Name == "Get" && p.Name == "Set" },
		FailsToCommute: func(a, b hybridcc.Op) bool { return a.Name != b.Name },
		Readers:        map[string]bool{"Get": true},
	}
}

// TestDialSetupCustomSpecFailsAtOnce: NewCustom inside a dialed setup fails
// when called, not when Dial returns, and sends nothing.
func TestDialSetupCustomSpecFailsAtOnce(t *testing.T) {
	fcs := startCountedShards(t, 1)
	var customErr error
	dial(t, addrsOf(fcs), func(c *hybridcc.Cluster) error {
		_, customErr = c.NewCustom("flag", flagSpec())
		return nil
	})
	if customErr == nil || !strings.Contains(customErr.Error(), "built-in") {
		t.Fatalf("NewCustom inside a dialed setup = %v, want an immediate built-in-types-only error", customErr)
	}
	if got := registerFrames(fcs); got[0] != 0 {
		t.Fatalf("%d register frames for a custom Spec, want none", got[0])
	}
}

// TestDialTypeClash: registering an existing object's name under another
// type fails Dial when done inside setup, and fails NewX at once outside
// it; both errors name the object and both types, and the object already
// registered keeps working.
func TestDialTypeClash(t *testing.T) {
	fcs := startCountedShards(t, 2)
	var acct *hybridcc.Account
	first := dial(t, addrsOf(fcs), func(c *hybridcc.Cluster) error {
		var err error
		acct, err = c.NewAccount("x")
		return err
	})
	mentions := func(err error) bool {
		return err != nil && strings.Contains(err.Error(), `"x"`) &&
			strings.Contains(err.Error(), "Account") && strings.Contains(err.Error(), "Counter")
	}

	_, err := hybridcc.Dial(addrsOf(fcs), func(c *hybridcc.Cluster) error {
		if _, err := c.NewAccount("y"); err != nil {
			return err
		}
		_, err := c.NewCounter("x")
		return err // nil: the clash is the shard's to find
	})
	if !mentions(err) {
		t.Fatalf("Dial with a clashing setup = %v, want an error naming \"x\", Account and Counter", err)
	}

	later := dial(t, addrsOf(fcs), nil)
	if _, err := later.NewCounter("x"); !mentions(err) {
		t.Fatalf("NewCounter(\"x\") after Dial = %v, want an error naming \"x\", Account and Counter", err)
	}

	for i := 0; i < 2; i++ {
		if err := first.Atomically(func(tx *hybridcc.DTx) error {
			if err := acct.Credit(tx, 3); err != nil {
				return err
			}
			ok, err := acct.Debit(tx, 3)
			if err == nil && !ok {
				err = fmt.Errorf("debit of a credited amount refused")
			}
			return err
		}); err != nil {
			t.Fatalf("account x after the clashes: %v", err)
		}
	}
}
