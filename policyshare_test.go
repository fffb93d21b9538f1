package hybridcc

import (
	"fmt"
	"testing"

	"hybridcc/internal/baseline"
	"hybridcc/internal/core"
	"hybridcc/internal/netproto"
)

// TestBuiltinPolicySetShared pins that every path registering a built-in
// object hands it its type's one policy set: two Accounts on one System,
// two on different shards of an in-process Cluster, two registered the way
// a shard registers a client's objects, and a dialed client's two stubs all
// hold the same Policy for every scheme.  Each object still switches
// schemes on its own.
func TestBuiltinPolicySetShared(t *testing.T) {
	sys := NewSystem()
	a, b := Must(sys.NewAccount("a")), Must(sys.NewAccount("b"))

	cl, err := NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var onShard [2]*Account
	for i := 0; onShard[0] == nil || onShard[1] == nil; i++ {
		name := fmt.Sprintf("c%d", i)
		if shard := cl.ShardFor(name); onShard[shard] == nil {
			onShard[shard] = Must(cl.NewAccount(name))
		}
	}

	shard := core.NewSystem(core.Options{})
	var wire [2]*core.Object
	for i, scheme := range []string{"hybrid", "readwrite"} {
		if wire[i], err = netproto.RegisterObject(shard, fmt.Sprintf("w%d", i), "Account", scheme); err != nil {
			t.Fatal(err)
		}
	}

	var stubs [2]*Account
	dialed, err := Dial(startNetShards(t, 1), func(c *Cluster) (err error) {
		for i := range stubs {
			if stubs[i], err = c.NewAccount(fmt.Sprintf("d%d", i)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dialed.Close()

	objs := []*core.Object{a.obj.obj, b.obj.obj, onShard[0].obj.obj, onShard[1].obj.obj, wire[0], wire[1], stubs[0].obj.obj, stubs[1].obj.obj}
	for _, scheme := range baseline.Schemes {
		want := objs[0].Policies().Get(scheme)
		if want == nil {
			t.Fatalf("no %s policy", scheme)
		}
		for i, o := range objs[1:] {
			if got := o.Policies().Get(scheme); got != want {
				t.Errorf("%s: object %d (%s) holds its own %s policy %p, want the shared %p", scheme, i+1, o.Name(), scheme, got, want)
			}
		}
	}

	if err := a.obj.SetScheme(ReadWrite); err != nil {
		t.Fatal(err)
	}
	if got := b.obj.Scheme(); got != Hybrid {
		t.Errorf("SetScheme on a moved its sibling b to %s", got)
	}
	if got := wire[1].Scheme(); got != "readwrite" {
		t.Errorf("wire-registered sibling runs %s, registered under readwrite", got)
	}
}
