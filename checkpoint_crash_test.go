package hybridcc

import (
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"hybridcc/internal/wal"
)

// Checkpoint crash-window and degradation tests at the public API: a kill
// -9 (simulated in-process through the WAL failpoint, real via shardd's
// -ckpt-crash flag) in every window of the checkpoint publish protocol
// must recover Verify()-clean with the exact acknowledged balance, and a
// checkpoint write failure must degrade to log-only operation, never
// poison the engine.

// creditN runs n credits of 5 and fails the test on any error.
func creditN(t *testing.T, s *System, acc *Account, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := s.Atomically(func(tx *Tx) error { return acc.Credit(tx, 5) }); err != nil {
			t.Fatal(err)
		}
	}
}

// countSegments counts the WAL segment files in dir.
func countSegments(t *testing.T, dir string) int {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	return len(matches)
}

// TestCheckpointCrashWindows kills the checkpointer (no cleanup, exactly
// as kill -9 would) at every stage of the publish protocol — before the
// temporary file exists, mid-write, after write before fsync, fsynced but
// before the publishing rename, published but before retiring the old
// checkpoint, and published but before unlinking covered segments — and
// recovers each window to the exact committed balance with the history
// verifying hybrid atomic from the checkpoint-seeded bases.
func TestCheckpointCrashWindows(t *testing.T) {
	for _, stage := range []string{"create", "write", "sync", "rename", "retire", "truncate"} {
		t.Run(stage, func(t *testing.T) {
			dir := t.TempDir()
			s, acc := openAccounts(t, dir, NewRecorder(), WithSegmentSize(1))
			creditN(t, s, acc, 8) // 40
			// A successful baseline checkpoint first: the pre-publish crash
			// windows must fall back to it, the post-publish ones supersede it.
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			creditN(t, s, acc, 3) // 55

			wal.CheckpointFailpoint = func(st string) error {
				if st == stage {
					return fmt.Errorf("%w (stage %s)", wal.ErrCheckpointCrash, st)
				}
				return nil
			}
			err := s.Checkpoint()
			wal.CheckpointFailpoint = nil
			if err == nil {
				t.Fatalf("checkpoint crashing at stage %s reported success", stage)
			}
			s.inner.CrashLog() // the rest of the process dies too

			s2, acc2 := openAccounts(t, dir, NewRecorder(), WithSegmentSize(1))
			defer s2.Close()
			if got := acc2.CommittedBalance(); got != 55 {
				t.Fatalf("stage %s: recovered balance = %d, want 55", stage, got)
			}
			if s2.bases == nil {
				t.Fatalf("stage %s: recovery did not seed from a checkpoint", stage)
			}
			creditN(t, s2, acc2, 1) // 60
			if err := s2.Verify(); err != nil {
				t.Fatalf("stage %s: Verify after crash: %v", stage, err)
			}
			// The engine is healthy, not poisoned: the next checkpoint works.
			if err := s2.Checkpoint(); err != nil {
				t.Fatalf("stage %s: checkpoint after recovery: %v", stage, err)
			}
		})
	}
}

// TestOpenCheckpointBytesBoundedReplay exercises the public trigger knob
// end to end: WithCheckpointBytes starts the background checkpointer,
// traffic makes it fire, truncation shrinks the log directory, and a crash
// afterwards recovers the exact balance by replaying only the tail.
func TestOpenCheckpointBytesBoundedReplay(t *testing.T) {
	dir := t.TempDir()
	s, acc := openAccounts(t, dir, NewRecorder(),
		WithSegmentSize(1), WithCheckpointBytes(1))
	credits := 0
	deadline := time.Now().Add(10 * time.Second)
	for {
		creditN(t, s, acc, 1)
		credits++
		st := s.CheckpointStats()
		if st.Checkpoints > 0 && st.SegmentsRemoved > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background checkpointer never truncated: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	segsAfterCkpt := countSegments(t, dir)
	if segsAfterCkpt >= credits {
		t.Fatalf("log not truncated: %d segments for %d commits", segsAfterCkpt, credits)
	}
	s.inner.CrashLog()

	s2, acc2 := openAccounts(t, dir, NewRecorder())
	defer s2.Close()
	if got, want := acc2.CommittedBalance(), int64(credits)*5; got != want {
		t.Fatalf("recovered balance = %d, want %d", got, want)
	}
	creditN(t, s2, acc2, 1)
	if err := s2.Verify(); err != nil {
		t.Fatalf("Verify after bounded recovery: %v", err)
	}
}

// TestCheckpointWriteFailureDegradesToLogOnly injects a disk-full failure
// into the checkpoint path through the public API: the attempt fails and
// is counted, commits keep flowing log-only, no torn checkpoint is
// published, and once space returns the next checkpoint succeeds.
func TestCheckpointWriteFailureDegradesToLogOnly(t *testing.T) {
	dir := t.TempDir()
	s, acc := openAccounts(t, dir, NewRecorder(), WithSegmentSize(1))
	defer s.Close()
	creditN(t, s, acc, 4) // 20

	wal.CheckpointFailpoint = func(st string) error {
		if st == "write" {
			return errors.New("write checkpoint: no space left on device")
		}
		return nil
	}
	err := s.Checkpoint()
	wal.CheckpointFailpoint = nil
	if err == nil || !strings.Contains(err.Error(), "no space") {
		t.Fatalf("checkpoint error = %v, want the injected ENOSPC", err)
	}
	if st := s.CheckpointStats(); st.Checkpoints != 0 || st.Failures != 1 {
		t.Fatalf("stats after failed attempt = %+v, want 0 checkpoints, 1 failure", st)
	}
	// Log-only degradation: commits still work, nothing half-published.
	creditN(t, s, acc, 2) // 30
	if ck, err := wal.LoadCheckpoint(dir); err != nil || ck != nil {
		t.Fatalf("after failed attempt: checkpoint=%v err=%v, want none", ck, err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after space returned: %v", err)
	}
	if st := s.CheckpointStats(); st.Checkpoints != 1 || st.Failures != 1 {
		t.Fatalf("stats after recovery attempt = %+v, want 1 checkpoint, 1 failure", st)
	}
	if got := acc.CommittedBalance(); got != 30 {
		t.Fatalf("balance = %d, want 30", got)
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestSharddCheckpointCrashWindows is the real-process leg of the crash
// matrix: a hybrid-shardd process is told (via -ckpt-crash) to kill -9
// itself the instant a checkpoint reaches a given publish stage, the
// checkpoint is triggered over the stats listener mid-traffic, and the
// shard is restarted over the same directory.  Every window must recover
// with the exact acknowledged balance and the client's recorded history
// verifying hybrid atomic across the crash.
func TestSharddCheckpointCrashWindows(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	bin := buildShardd(t)
	for _, stage := range []string{"sync", "rename", "retire", "truncate"} {
		t.Run(stage, func(t *testing.T) {
			dir := t.TempDir()
			addr, statsAddr := freePort(t), freePort(t)
			p := spawnShardd(t, bin, addr, dir, 0, 1,
				"-stats", statsAddr, "-segment", "1", "-ckpt-crash", stage)
			alive := true
			defer func() {
				if alive {
					p.kill()
				}
			}()

			rec := NewRecorder()
			var led *transferLedger
			c, err := Dial([]string{addr}, func(cl *Cluster) error {
				var err error
				led, err = newTransferLedger(cl, 1)
				return err
			},
				WithRecorder(rec),
				WithShardBreaker(3, BackoffPolicy{Base: 50 * time.Millisecond, Cap: 500 * time.Millisecond}),
			)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			var acked int64
			for i := 0; i < 12; i++ {
				if err := led.transfer(c, 0, 0, 1); err != nil {
					t.Fatal(err)
				}
				acked++
			}

			// Trigger the checkpoint; the process dies at the staged window,
			// so the request fails (connection torn mid-handler) — that IS
			// the expected outcome.
			cl := http.Client{Timeout: 5 * time.Second}
			if resp, err := cl.Post(fmt.Sprintf("http://%s/checkpoint", statsAddr), "text/plain", nil); err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					t.Fatalf("stage %s: checkpoint succeeded, process did not die", stage)
				}
			}
			p.kill() // reap the dead process
			alive = false

			// The publish protocol's invariant on what a window leaves behind:
			// pre-rename windows publish nothing, post-rename ones exactly one
			// valid checkpoint.
			walDir := filepath.Join(dir, "wal")
			ck, err := wal.LoadCheckpoint(walDir)
			if err != nil {
				t.Fatal(err)
			}
			published := stage == "retire" || stage == "truncate"
			if (ck != nil) != published {
				t.Fatalf("stage %s: published checkpoint = %v, want %v", stage, ck, published)
			}

			p2 := spawnShardd(t, bin, addr, dir, 0, 1, "-stats", statsAddr)
			defer p2.kill()

			// The client reconnects through its breaker; commits flow again.
			deadline := time.Now().Add(20 * time.Second)
			for {
				if err := led.transfer(c, 0, 0, 1); err == nil {
					acked++
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("stage %s: shard never accepted a commit after restart", stage)
				}
				time.Sleep(100 * time.Millisecond)
			}

			out, in, err := led.snapshotBalance(c)
			if err != nil {
				t.Fatal(err)
			}
			if out != acked || in != acked {
				t.Fatalf("stage %s: recovered sum(out)=%d sum(in)=%d, want acked=%d", stage, out, in, acked)
			}
			if err := c.Verify(); err != nil {
				t.Fatalf("stage %s: Verify across checkpoint crash: %v", stage, err)
			}
		})
	}
}

// TestSharddCheckpointDiskReclaim asserts the operational point of
// truncation on the real backend: after a checkpoint over the stats
// listener, the shard's WAL directory holds fewer bytes than before, and a
// restart over the shrunken directory recovers the full balance.
func TestSharddCheckpointDiskReclaim(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	bin := buildShardd(t)
	dir := t.TempDir()
	addr, statsAddr := freePort(t), freePort(t)
	p := spawnShardd(t, bin, addr, dir, 0, 1, "-stats", statsAddr, "-segment", "1")
	defer p.kill()

	var led *transferLedger
	c, err := Dial([]string{addr}, func(cl *Cluster) error {
		var err error
		led, err = newTransferLedger(cl, 1)
		return err
	}, WithShardBreaker(3, BackoffPolicy{Base: 50 * time.Millisecond, Cap: 500 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var acked int64
	for i := 0; i < 20; i++ {
		if err := led.transfer(c, 0, 0, 1); err != nil {
			t.Fatal(err)
		}
		acked++
	}
	walDir := filepath.Join(dir, "wal")
	before := dirBytes(t, walDir)

	cl := http.Client{Timeout: 5 * time.Second}
	resp, err := cl.Post(fmt.Sprintf("http://%s/checkpoint", statsAddr), "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint: HTTP %d", resp.StatusCode)
	}
	after := dirBytes(t, walDir)
	if after >= before {
		t.Fatalf("WAL directory grew across checkpoint: %d -> %d bytes", before, after)
	}
	t.Logf("WAL dir: %d bytes before checkpoint, %d after", before, after)

	// Restart over the truncated directory: the checkpoint plus the tail
	// must still recover everything acknowledged.
	p.kill()
	p2 := spawnShardd(t, bin, addr, dir, 0, 1, "-stats", statsAddr)
	defer p2.kill()
	deadline := time.Now().Add(20 * time.Second)
	for {
		if err := led.transfer(c, 0, 0, 1); err == nil {
			acked++
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("shard never accepted a commit after restart")
		}
		time.Sleep(100 * time.Millisecond)
	}
	out, in, err := led.snapshotBalance(c)
	if err != nil {
		t.Fatal(err)
	}
	if out != acked || in != acked {
		t.Fatalf("recovered sum(out)=%d sum(in)=%d, want acked=%d", out, in, acked)
	}
}

// dirBytes sums the file sizes in dir.
func dirBytes(t *testing.T, dir string) int64 {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		n += info.Size()
	}
	return n
}

// TestCheckpointCustomSpecImage: a custom spec has no durable-state
// encoding, so its checkpoint image is its committed operations — built
// from what the fold retained, it must equal the image the log-scanning
// checkpointer assembled from the previous checkpoint plus the surviving
// segments, generation after generation; and a crash after the
// checkpoints recovers the state from image plus tail.
func TestCheckpointCustomSpecImage(t *testing.T) {
	dir := t.TempDir()
	open := func() (*System, Obj[int64]) {
		var reg *Object
		s, err := Open(dir, func(s *System) error {
			var err error
			reg, err = s.NewCustom("reg", testRegisterSpec())
			return err
		}, WithSegmentSize(1), WithRecorder(NewRecorder()))
		if err != nil {
			t.Fatal(err)
		}
		return s, Typed[int64](reg)
	}
	s, reg := open()
	var sum int64
	add := func(n int64) {
		t.Helper()
		if err := s.Atomically(func(tx *Tx) error {
			_, err := reg.Call(tx, Invocation{Name: "Add", Arg: strconv.FormatInt(n, 10)})
			return err
		}); err != nil {
			t.Fatal(err)
		}
		sum += n
	}
	for gen := 1; gen <= 3; gen++ {
		for i := range 4 {
			add(int64(gen*10 + i))
		}
		prev, err := wal.LoadCheckpoint(dir)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := wal.ReadAll(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		ck, err := wal.LoadCheckpoint(dir)
		if err != nil || ck == nil || len(ck.Objects) != 1 || ck.Objects[0].HasState {
			t.Fatalf("gen %d: checkpoint %+v, %v; want one operations image", gen, ck, err)
		}
		got := ck.Objects[0]
		var prevObj *wal.CheckpointObject
		if prev != nil {
			prevObj = &prev.Objects[0]
		}
		want := scannedImage(got.Name, got.Folded, prevObj, recs)
		if len(got.ImageOps) != 4*gen || fmt.Sprint(got.ImageOps) != fmt.Sprint(want) {
			t.Fatalf("gen %d: image %+v, want %d entries: %+v", gen, got.ImageOps, 4*gen, want)
		}
	}
	add(100) // a tail above the last checkpoint
	s.inner.CrashLog()

	s2, reg2 := open()
	defer s2.Close()
	if got := reg2.Committed(); got != sum {
		t.Fatalf("recovered %d, want %d", got, sum)
	}
	if err := s2.Verify(); err != nil {
		t.Fatalf("Verify after recovery: %v", err)
	}
}

// scannedImage is the operations image as the log-scanning checkpointer
// assembled it: every committed leg at name below the fold frontier, from
// the previous checkpoint's image and unforgotten entries and from the
// surviving log records, deduplicated by transaction, in timestamp order.
func scannedImage(name string, folded int64, prev *wal.CheckpointObject, recs []wal.Record) []wal.CheckpointEntry {
	seen := make(map[string]bool)
	var img []wal.CheckpointEntry
	add := func(e wal.CheckpointEntry) {
		if e.TS < folded && !seen[e.Tx] {
			seen[e.Tx] = true
			img = append(img, e)
		}
	}
	if prev != nil {
		for _, e := range prev.ImageOps {
			add(e)
		}
		for _, e := range prev.Unforgotten {
			add(e)
		}
	}
	for _, r := range recs {
		for _, oo := range r.Objs {
			if r.Kind == wal.KindCommit && oo.Obj == name {
				add(wal.CheckpointEntry{Tx: r.Tx, TS: r.TS, Participants: r.Participants, Ops: oo.Ops})
			}
		}
	}
	sort.SliceStable(img, func(i, j int) bool { return img[i].TS < img[j].TS })
	return img
}
