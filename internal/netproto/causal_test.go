package netproto

import (
	"context"
	"fmt"
	"testing"
	"time"

	"hybridcc/internal/adt"
	"hybridcc/internal/cluster"
	"hybridcc/internal/commitproto"
	"hybridcc/internal/core"
	"hybridcc/internal/histories"
	"hybridcc/internal/verify"
)

// decidesLost is a shard connection whose commit decisions are lost on the
// way: just before a decide frame is written, the shard's side of every
// connection is cut, so the shard never reads the frame and the decision
// waits for redelivery.
type decidesLost struct {
	*ShardClient
	srv *Server
}

func (d decidesLost) Transport() commitproto.Transport {
	return decidesLostTransport{d.ShardClient.Transport(), d.srv}
}

type decidesLostTransport struct {
	commitproto.Transport
	srv *Server
}

func (d decidesLostTransport) StartCommit(ctx context.Context, tx histories.TxID, ts histories.Timestamp, timeout time.Duration) func() bool {
	severServerConns(d.srv)
	return d.Transport.StartCommit(ctx, tx, ts, timeout)
}

// A cross-shard commit can return before a shard has applied it: here P's
// decide to A is lost, and the decision waits for redelivery.  The same
// client's next transaction U increments the same counter at A and
// commits on A's fast path, on a fresh connection.  Inc commutes with Inc,
// so no lock orders U after P; A's clock, far behind B's, would give U a
// timestamp below P's although U began after P committed —
// precedes(H|X) ⊆ TS(H) broken.  U's commit must carry P's timestamp as a
// bound, so U serializes after P and the client's history verifies.
func TestFastPathCommitAboveUnappliedDecision(t *testing.T) {
	addrA, srvA := startShard(t, 0, 2)
	addrB, _ := startShard(t, 1, 2)
	opts := ClientOptions{Timeout: 300 * time.Millisecond}
	ca := dialTest(t, addrA, 0, 2, opts)
	cb := dialTest(t, addrB, 1, 2, opts)
	rec := verify.NewRecorder()
	cl, err := cluster.NewRemote([]cluster.RemoteConn{decidesLost{ca, srvA}, cb}, cluster.RemoteOptions{
		CommitTimeout: 300 * time.Millisecond,
		Sink:          rec,
		IDPrefix:      "c-",
	})
	if err != nil {
		t.Fatal(err)
	}
	objOn := func(shard int) *core.Object {
		for i := 0; ; i++ {
			if name := fmt.Sprintf("ctr%d", i); cl.ShardFor(name) == shard {
				o, err := RegisterObject(cl.Shard(shard), name, "Counter", "hybrid")
				if err != nil {
					t.Fatal(err)
				}
				return o
			}
		}
	}
	x, y := objOn(0), objOn(1)
	specs := histories.SpecMap{x.Name(): adt.NewCounter(), y.Name(): adt.NewCounter()}
	inc := func(tx *cluster.DTx, objs ...*core.Object) {
		t.Helper()
		for _, o := range objs {
			b, err := tx.Branch(o)
			if err == nil {
				_, err = o.Call(b, adt.IncInv(1))
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	// B's clock runs far ahead of A's.
	for i := 0; i < 20; i++ {
		inc(cl.Begin(), y)
	}
	p := cl.Begin()
	inc(p, x, y)

	// U on a fresh connection to A: the pooled ones are set aside.
	ca.mu.Lock()
	idle := ca.idle
	ca.idle = nil
	ca.mu.Unlock()
	u := cl.Begin()
	inc(u, x)
	for _, rc := range idle {
		ca.finish(rc, action{done: true, place: pool})
	}

	ts := map[histories.TxID]histories.Timestamp{}
	for _, e := range rec.History() {
		if e.Kind == histories.Commit {
			ts[e.Tx] = e.TS
		}
	}
	if ts[u.ID()] <= ts[p.ID()] {
		t.Errorf("U committed at %d, not above P's %d, which it followed", ts[u.ID()], ts[p.ID()])
	}
	if err := verify.CheckGeneralizedHybridAtomic(rec.History(), specs, func(histories.TxID) bool { return false }); err != nil {
		t.Error(err)
	}
}
