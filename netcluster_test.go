package hybridcc

import (
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hybridcc/internal/core"
	"hybridcc/internal/netproto"
	"hybridcc/internal/tstamp"
)

// startNetShards serves n in-process netproto shard servers on loopback —
// the same wire protocol hybrid-shardd speaks, without the process
// boundary — and returns their addresses in shard order.
func startNetShards(t *testing.T, n int) []string {
	t.Helper()
	return startNetShardsWith(t, n, time.Second, nil)
}

// startNetShardsWith is startNetShards with the shards' lock-wait bound and
// their listeners passed through wrap (nil: none).
func startNetShardsWith(t testing.TB, n int, lockWait time.Duration, wrap func(net.Listener) net.Listener) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		sys := core.NewSystem(core.Options{
			Clock:              tstamp.NewNodeClock(i, n+1),
			ExternalTimestamps: true,
			LockWait:           lockWait,
			DeadlockDetection:  true,
		})
		srv, err := netproto.NewServer(sys, i, n, netproto.ServerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		if wrap != nil {
			ln = wrap(ln)
		}
		go func() { _ = srv.Serve(ln) }()
		t.Cleanup(func() { srv.Shutdown(time.Second) })
	}
	return addrs
}

// counterOn registers a counter owned by the given shard, probing names
// until one hashes there.
func counterOn(c *Cluster, shard int, prefix string) (*Counter, error) {
	for i := 0; i < 4096; i++ {
		name := fmt.Sprintf("%s-%d-%d", prefix, shard, i)
		if c.ShardFor(name) == shard {
			return c.NewCounter(name)
		}
	}
	return nil, fmt.Errorf("no %s name hashes to shard %d", prefix, shard)
}

// transferLedger is the cross-shard tearing detector: every transfer
// increments out[x] on one shard and in[y] on another by the same amount
// inside one transaction, so any consistent snapshot must see
// sum(out) == sum(in).  A torn 2PC — one leg committed, the other not —
// breaks the equality.  (Counters are increment-only, so transfers are
// modelled as matched out/in entries rather than a debit.)
type transferLedger struct {
	out, in []*Counter
}

func newTransferLedger(c *Cluster, shards int) (*transferLedger, error) {
	l := &transferLedger{}
	for i := 0; i < shards; i++ {
		o, err := counterOn(c, i, "out")
		if err != nil {
			return nil, err
		}
		n, err := counterOn(c, i, "in")
		if err != nil {
			return nil, err
		}
		l.out = append(l.out, o)
		l.in = append(l.in, n)
	}
	return l, nil
}

// transfer records amount moving from shard x to shard y in one atomic
// transaction (cross-shard when x != y).
func (l *transferLedger) transfer(c *Cluster, x, y int, amount int64) error {
	return c.Atomically(func(tx *DTx) error {
		if err := l.out[x].Inc(tx, amount); err != nil {
			return err
		}
		return l.in[y].Inc(tx, amount)
	})
}

// snapshotBalance reads every counter in one cluster-wide snapshot and
// returns (sum out, sum in).
func (l *transferLedger) snapshotBalance(c *Cluster) (int64, int64, error) {
	var out, in int64
	err := c.Snapshot(func(r *DReadTx) error {
		out, in = 0, 0
		for _, ctr := range l.out {
			v, err := ctr.ReadAt(r)
			if err != nil {
				return err
			}
			out += v
		}
		for _, ctr := range l.in {
			v, err := ctr.ReadAt(r)
			if err != nil {
				return err
			}
			in += v
		}
		return nil
	})
	return out, in, err
}

// TestDialedClusterWorkload runs the public cross-shard workload against
// a dialed cluster: every branch operation is an RPC to a loopback shard
// server, commits run 2PC over the connections, and the same atomicity
// obligations hold — snapshots must never see a torn transfer, and the
// recorded history must verify hybrid atomic.
func TestDialedClusterWorkload(t *testing.T) {
	const (
		shards  = 4
		workers = 8
		txEach  = 10
	)
	addrs := startNetShards(t, shards)

	rec := NewRecorder()
	var ledger *transferLedger
	var acct *Account
	c, err := Dial(addrs, func(cl *Cluster) error {
		var err error
		if ledger, err = newTransferLedger(cl, shards); err != nil {
			return err
		}
		acct, err = cl.NewAccount("acct")
		return err
	}, WithRecorder(rec), WithCommitTimeout(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// A couple of single-shard transactions exercise the remote fast
	// path alongside the 2PC traffic.
	if err := c.Atomically(func(tx *DTx) error { return acct.Credit(tx, 50) }); err != nil {
		t.Fatal(err)
	}

	var workersWG, bgWG sync.WaitGroup
	errs := make(chan error, workers+1)
	for w := 0; w < workers; w++ {
		workersWG.Add(1)
		go func(w int) {
			defer workersWG.Done()
			for i := 0; i < txEach; i++ {
				x := (w + i) % shards
				y := (x + 1 + i%(shards-1)) % shards
				if err := ledger.transfer(c, x, y, int64(1+i%3)); err != nil {
					errs <- fmt.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}(w)
	}

	stop := make(chan struct{})
	bgWG.Add(1)
	go func() { // concurrent snapshots: the ledger balances at every instant
		defer bgWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			out, in, err := ledger.snapshotBalance(c)
			if err != nil {
				if errors.Is(err, ErrTimeout) {
					continue // reader outwaited by a commit window; retry
				}
				errs <- fmt.Errorf("snapshot: %v", err)
				return
			}
			if out != in {
				errs <- fmt.Errorf("snapshot saw out=%d in=%d — transfer torn across shards", out, in)
				return
			}
		}
	}()

	workersWG.Wait()
	close(stop)
	bgWG.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	out, in, err := ledger.snapshotBalance(c)
	if err != nil {
		t.Fatal(err)
	}
	if out != in || out == 0 {
		t.Fatalf("final ledger out=%d in=%d, want equal and nonzero", out, in)
	}
	var debited bool
	if err := c.Atomically(func(tx *DTx) error {
		var err error
		debited, err = acct.Debit(tx, 50)
		return err
	}); err != nil || !debited {
		t.Fatalf("account over the wire: ok=%v err=%v", debited, err)
	}
	if err := c.Verify(); err != nil {
		t.Fatalf("dialed cluster Verify: %v", err)
	}
	st := c.Stats()
	if st.CrossShardCommits == 0 || st.FastPathCommits == 0 {
		t.Fatalf("workload exercised only one commit path: %+v", st)
	}
	t.Logf("dialed: %s", st)
}

// --- multi-process: real hybrid-shardd processes, kill -9 included ---

var (
	sharddOnce sync.Once
	sharddDir  string
	sharddBin  string
	sharddErr  error
)

// TestMain removes the directory buildShardd compiled hybrid-shardd into.
func TestMain(m *testing.M) {
	code := m.Run()
	if sharddDir != "" {
		_ = os.RemoveAll(sharddDir)
	}
	os.Exit(code)
}

// buildShardd compiles cmd/hybrid-shardd once per test binary run, into
// sharddDir.
func buildShardd(t *testing.T) string {
	t.Helper()
	sharddOnce.Do(func() {
		goTool, err := exec.LookPath("go")
		if err != nil {
			sharddErr = err
			return
		}
		dir, err := os.MkdirTemp("", "shardd-bin")
		if err != nil {
			sharddErr = err
			return
		}
		sharddDir = dir
		bin := filepath.Join(dir, "hybrid-shardd")
		cmd := exec.Command(goTool, "build", "-o", bin, "./cmd/hybrid-shardd")
		if out, err := cmd.CombinedOutput(); err != nil {
			sharddErr = fmt.Errorf("go build hybrid-shardd: %v\n%s", err, out)
			return
		}
		sharddBin = bin
	})
	if sharddErr != nil {
		t.Skipf("cannot build hybrid-shardd: %v", sharddErr)
	}
	return sharddBin
}

// sharddProc is one spawned shard-server process.
type sharddProc struct {
	cmd   *exec.Cmd
	addr  string
	dir   string
	shard int
	logf  *os.File
}

func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close()
	return addr
}

// spawnShardd starts a shardd process on addr over dir and waits until it
// accepts connections.  extra appends further shardd flags (e.g. -stats).
func spawnShardd(t *testing.T, bin, addr, dir string, shard, shards int, extra ...string) *sharddProc {
	t.Helper()
	logf, err := os.OpenFile(filepath.Join(dir, "shardd.log"),
		os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	args := []string{
		"-addr", addr,
		"-shard", fmt.Sprint(shard),
		"-shards", fmt.Sprint(shards),
		"-dir", dir,
		"-grace", "1s",
	}
	args = append(args, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		_ = logf.Close()
		t.Fatalf("start shardd %d: %v", shard, err)
	}
	p := &sharddProc{cmd: cmd, addr: addr, dir: dir, shard: shard, logf: logf}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		nc, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
		if err == nil {
			_ = nc.Close()
			return p
		}
		time.Sleep(20 * time.Millisecond)
	}
	p.kill()
	t.Fatalf("shardd %d never came up on %s (log: %s)", shard, addr, p.tailLog())
	return nil
}

func (p *sharddProc) kill() {
	if p.cmd.Process != nil {
		_ = p.cmd.Process.Kill() // SIGKILL: no drain, no cleanup
		_, _ = p.cmd.Process.Wait()
	}
	_ = p.logf.Close()
}

func (p *sharddProc) tailLog() string {
	b, err := os.ReadFile(filepath.Join(p.dir, "shardd.log"))
	if err != nil {
		return fmt.Sprintf("<unreadable: %v>", err)
	}
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// TestShardProcessKill9Recovery is the end-to-end crash drill the network
// layer exists for: four real hybrid-shardd processes, cross-shard 2PC
// traffic from this process, kill -9 of one shard mid-traffic, restart
// over the same durable directory, and recovery through the client's
// decision ledger — committed transfers stay committed, in-doubt branches
// resolve by ledgered decision or presumed abort, and the out/in ledger
// still balances.
func TestShardProcessKill9Recovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	bin := buildShardd(t)

	const (
		shards = 4
		victim = 2
	)
	procs := make([]*sharddProc, shards)
	addrs := make([]string, shards)
	for i := 0; i < shards; i++ {
		addrs[i] = freePort(t)
		procs[i] = spawnShardd(t, bin, addrs[i], t.TempDir(), i, shards)
	}
	t.Cleanup(func() {
		for i, p := range procs {
			if p != nil {
				p.kill()
				if t.Failed() {
					t.Logf("shard %d log:\n%s", i, p.tailLog())
				}
			}
		}
	})

	rec := NewRecorder()
	var ledger *transferLedger
	c, err := Dial(addrs, func(cl *Cluster) error {
		var err error
		ledger, err = newTransferLedger(cl, shards)
		return err
	}, WithRecorder(rec), WithCommitTimeout(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Background cross-shard transfer traffic.  During the kill window
	// transfers touching the victim fail with retryable errors — that is
	// the contract under test: they abort cleanly or commit fully, never
	// tear.  Unexpected (non-retryable) errors fail the run.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	hardErrs := make(chan error, 8)
	var committed [8]atomic.Int64
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				x := (w + i) % shards
				y := (x + 1 + i%(shards-1)) % shards
				err := ledger.transfer(c, x, y, int64(1+i%3))
				switch {
				case err == nil:
					committed[w].Add(1)
				case retryable(err):
					// victim down: aborted cleanly, fine
				default:
					hardErrs <- fmt.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}(w)
	}

	// Let traffic flow, then kill -9 the victim mid-stream.
	time.Sleep(300 * time.Millisecond)
	procs[victim].kill()
	time.Sleep(300 * time.Millisecond)

	// Restart it over the same durable directory and the same address.
	// Its prepared-but-undecided branches come back pending; the client's
	// next connection feeds them the ledgered decisions (or aborts).
	procs[victim] = spawnShardd(t, bin, addrs[victim], procs[victim].dir, victim, shards)

	// Traffic must fully recover: every worker commits again post-restart.
	recoveredBy := time.Now().Add(15 * time.Second)
	for {
		var snap [8]int64
		for w := range committed {
			snap[w] = committed[w].Load()
		}
		time.Sleep(300 * time.Millisecond)
		progressed := 0
		for w := range committed {
			if committed[w].Load() > snap[w] {
				progressed++
			}
		}
		if progressed == len(committed) {
			break
		}
		if time.Now().After(recoveredBy) {
			close(stop)
			wg.Wait()
			t.Fatalf("traffic did not recover after restart (progressed %d/8 workers)", progressed)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-hardErrs:
		t.Fatal(err)
	default:
	}

	// The ledger balances across the crash: a consistent snapshot of all
	// four shards sees matched out/in totals.
	// Time-bounded, not attempt-bounded: the victim's breaker can stay
	// open past its restart until a probe lands, and its backoff can hold
	// the next probe off for seconds.
	var out, in int64
	snapshotBy := time.Now().Add(15 * time.Second)
	for {
		out, in, err = ledger.snapshotBalance(c)
		if err == nil || !retryable(err) || time.Now().After(snapshotBy) {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if err != nil {
		t.Fatal(err)
	}
	if out != in || out == 0 {
		t.Fatalf("ledger torn across kill -9: out=%d in=%d", out, in)
	}
	if err := c.Verify(); err != nil {
		t.Fatalf("post-crash Verify: %v", err)
	}
	n := int64(0)
	for w := range committed {
		n += committed[w].Load()
	}
	t.Logf("survived kill -9 of shard %d: %d transfers committed, out=in=%d", victim, n, out)
}
