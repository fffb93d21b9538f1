package core

import (
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hybridcc/internal/adt"
	"hybridcc/internal/depend"
	"hybridcc/internal/spec"
	"hybridcc/internal/wal"
)

// segFiles counts the wal-*.seg files in dir.
func segFiles(t *testing.T, dir string) int {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "wal-") && strings.HasSuffix(e.Name(), ".seg") {
			n++
		}
	}
	return n
}

func openCheckpointable(t *testing.T, dir string) *System {
	t.Helper()
	s, err := OpenSystem(Options{
		LockWait: 250 * time.Millisecond,
		// One record per segment: every commit seals a truncatable segment,
		// so the reclaim assertions see real unlinks.
		Durability: &Durability{Dir: dir, Sync: true, SegmentSize: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCheckpointBoundedReplay: after a checkpoint at N commits, a restart
// replays only the post-checkpoint tail — the replayed count is independent
// of N — and the log directory shrinks when the checkpoint lands.
func TestCheckpointBoundedReplay(t *testing.T) {
	for _, n := range []int{8, 40} {
		dir := t.TempDir()
		s := openCheckpointable(t, dir)
		if err := s.FinishRecovery(); err != nil {
			t.Fatal(err)
		}
		acc := accountOn(s)
		for i := 0; i < n; i++ {
			credit(t, s, acc, 10)
		}
		before := segFiles(t, dir)
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		after := segFiles(t, dir)
		if after >= before {
			t.Fatalf("n=%d: %d segments before checkpoint, %d after — nothing reclaimed", n, before, after)
		}
		st := s.CheckpointStats()
		if st.Checkpoints != 1 || st.SegmentsRemoved == 0 || st.BytesReclaimed == 0 {
			t.Fatalf("n=%d: stats = %+v", n, st)
		}
		for i := 0; i < 3; i++ {
			credit(t, s, acc, 1)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}

		s2 := openCheckpointable(t, dir)
		acc2 := accountOn(s2)
		got := 0
		for range s2.RecoveredCommittedSeq() {
			got++
		}
		if got != 3 {
			t.Fatalf("n=%d: restart replays %d transactions, want 3 (independent of pre-checkpoint count)", n, got)
		}
		if err := s2.FinishRecovery(); err != nil {
			t.Fatal(err)
		}
		if got := adt.AccountBalance(acc2.CommittedState()); got != int64(n*10+3) {
			t.Fatalf("n=%d: recovered balance = %d, want %d", n, got, n*10+3)
		}
		if bases := s2.RecoveredBases(); bases == nil || bases["acc"] == nil {
			t.Fatalf("n=%d: no recovered base state for acc", n)
		} else if got := adt.AccountBalance(bases["acc"]); got != int64(n*10) {
			t.Fatalf("n=%d: base state balance = %d, want %d", n, got, n*10)
		}
		// A post-recovery commit works and the next incarnation agrees.
		credit(t, s2, acc2, 6)
		if err := s2.Close(); err != nil {
			t.Fatal(err)
		}
		s3 := openCheckpointable(t, dir)
		acc3 := accountOn(s3)
		if err := s3.FinishRecovery(); err != nil {
			t.Fatal(err)
		}
		if got := adt.AccountBalance(acc3.CommittedState()); got != int64(n*10+9) {
			t.Fatalf("n=%d: third incarnation balance = %d, want %d", n, got, n*10+9)
		}
		s3.Close()
	}
}

// opaqueSpec hides a specification's durable-state capability, forcing the
// checkpointer onto the committed-operations fallback image.
type opaqueSpec struct{ spec.Spec }

// TestCheckpointFallbackImage: a spec without DurableState still
// checkpoints — the image is the compacted committed-operations sequence —
// and a second-generation checkpoint stays complete even after the first
// one's truncation removed the early records.
func TestCheckpointFallbackImage(t *testing.T) {
	dir := t.TempDir()
	open := func() (*System, *Object) {
		s := openCheckpointable(t, dir)
		o := s.NewObject("acc", opaqueSpec{adt.NewAccount()}, depend.SymmetricClosure(depend.AccountDependency()))
		return s, o
	}
	s, acc := open()
	if err := s.FinishRecovery(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		credit(t, s, acc, 10)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ck, err := wal.LoadCheckpoint(dir)
	if err != nil || ck == nil {
		t.Fatalf("LoadCheckpoint = %v, %v", ck, err)
	}
	if len(ck.Objects) != 1 || ck.Objects[0].HasState || len(ck.Objects[0].ImageOps) != 5 {
		t.Fatalf("fallback image = %+v", ck.Objects[0])
	}
	// Second generation: the first checkpoint's records are gone from the
	// log, so the new image must inherit them from the old image.
	for i := 0; i < 4; i++ {
		credit(t, s, acc, 1)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ck2, err := wal.LoadCheckpoint(dir)
	if err != nil || ck2 == nil {
		t.Fatalf("LoadCheckpoint = %v, %v", ck2, err)
	}
	if len(ck2.Objects[0].ImageOps) != 9 {
		t.Fatalf("second-generation image has %d entries, want 9", len(ck2.Objects[0].ImageOps))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, acc2 := open()
	if err := s2.FinishRecovery(); err != nil {
		t.Fatal(err)
	}
	if got := adt.AccountBalance(acc2.CommittedState()); got != 54 {
		t.Fatalf("recovered balance = %d, want 54", got)
	}
	s2.Close()
}

// TestCheckpointFailureDegradesToLogOnly: an injected write failure (disk
// full, say) poisons only the checkpoint attempt — commits keep working,
// the counters record the failure, and a later attempt succeeds.
func TestCheckpointFailureDegradesToLogOnly(t *testing.T) {
	dir := t.TempDir()
	s := openCheckpointable(t, dir)
	if err := s.FinishRecovery(); err != nil {
		t.Fatal(err)
	}
	acc := accountOn(s)
	for i := 0; i < 5; i++ {
		credit(t, s, acc, 10)
	}
	for _, stage := range []string{"create", "write", "sync", "rename"} {
		wal.CheckpointFailpoint = func(st string) error {
			if st == stage {
				return errors.New("no space left on device")
			}
			return nil
		}
		if err := s.Checkpoint(); err == nil {
			t.Fatalf("stage %s: injected failure not reported", stage)
		}
	}
	wal.CheckpointFailpoint = nil
	st := s.CheckpointStats()
	if st.Failures != 4 || st.Checkpoints != 0 {
		t.Fatalf("stats after failures = %+v", st)
	}
	if ck, err := wal.LoadCheckpoint(dir); err != nil || ck != nil {
		t.Fatalf("failed attempts published a checkpoint: %v, %v", ck, err)
	}
	// The engine runs log-only: commits still land and are durable.
	credit(t, s, acc, 5)
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after failures: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openCheckpointable(t, dir)
	acc2 := accountOn(s2)
	if err := s2.FinishRecovery(); err != nil {
		t.Fatal(err)
	}
	if got := adt.AccountBalance(acc2.CommittedState()); got != 55 {
		t.Fatalf("recovered balance = %d, want 55", got)
	}
	s2.Close()
}

// TestCheckpointCarriesPendingBranch: a prepared-but-undecided branch's
// record may live in a truncated segment — the checkpoint carries the
// branch, and the next recovery still resolves it from the coordinator's
// decision.
func TestCheckpointCarriesPendingBranch(t *testing.T) {
	dir := t.TempDir()
	open := func() *System {
		s, err := OpenSystem(Options{
			LockWait:           250 * time.Millisecond,
			ExternalTimestamps: true,
			Durability:         &Durability{Dir: dir, Sync: true, SegmentSize: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s := open()
	if err := s.FinishRecovery(); err != nil {
		t.Fatal(err)
	}
	acc := accountOn(s)
	tx := s.BeginBranch(nil, "X1")
	if _, err := acc.Call(tx, adt.CreditInv(100)); err != nil {
		t.Fatal(err)
	}
	if err := tx.CommitAt(10); err != nil {
		t.Fatal(err)
	}
	br := s.BeginBranch(nil, "X2")
	if _, err := acc.Call(br, adt.CreditInv(5)); err != nil {
		t.Fatal(err)
	}
	if _, err := br.Prepare(); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ck, err := wal.LoadCheckpoint(dir)
	if err != nil || ck == nil {
		t.Fatalf("LoadCheckpoint = %v, %v", ck, err)
	}
	if len(ck.Pending) != 1 || ck.Pending[0].Tx != "X2" {
		t.Fatalf("checkpoint pending = %+v, want [X2]", ck.Pending)
	}
	s.CrashLog() // dies prepared, decision never arrived

	s2 := open()
	acc2 := accountOn(s2)
	pend := s2.RecoveredPending()
	if len(pend) != 1 || pend[0].ID != "X2" {
		t.Fatalf("pending after restart = %+v, want [X2]", pend)
	}
	if err := s2.ResolvePending("X2", 20); err != nil {
		t.Fatal(err)
	}
	if err := s2.FinishRecovery(); err != nil {
		t.Fatal(err)
	}
	if got := adt.AccountBalance(acc2.CommittedState()); got != 105 {
		t.Fatalf("recovered balance = %d, want 105", got)
	}
	s2.Close()
}

// TestBackgroundCheckpointer: a configured bytes trigger takes checkpoints
// on its own once recovery finishes, truncating as it goes.
func TestBackgroundCheckpointer(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSystem(Options{
		LockWait:   250 * time.Millisecond,
		Durability: &Durability{Dir: dir, Sync: true, SegmentSize: 1, CheckpointBytes: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.FinishRecovery(); err != nil {
		t.Fatal(err)
	}
	acc := accountOn(s)
	for i := 0; i < 5; i++ {
		credit(t, s, acc, 10)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.CheckpointStats().Checkpoints == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("background checkpointer never ran: %+v", s.CheckpointStats())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openCheckpointable(t, dir)
	acc2 := accountOn(s2)
	if err := s2.FinishRecovery(); err != nil {
		t.Fatal(err)
	}
	if got := adt.AccountBalance(acc2.CommittedState()); got != 50 {
		t.Fatalf("recovered balance = %d, want 50", got)
	}
	s2.Close()
}

// TestCheckpointGates: checkpoints are refused before recovery finishes and
// on volatile systems — both errors, never panics or partial state.
func TestCheckpointGates(t *testing.T) {
	dir := t.TempDir()
	s := openCheckpointable(t, dir)
	if err := s.Checkpoint(); err == nil || !strings.Contains(err.Error(), "recovery") {
		t.Fatalf("Checkpoint before recovery: %v", err)
	}
	if err := s.FinishRecovery(); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	v := NewSystem(Options{})
	if err := v.Checkpoint(); err == nil || !strings.Contains(err.Error(), "durability") {
		t.Fatalf("Checkpoint on volatile system: %v", err)
	}
	v.Close()
}

// segNames returns the set of wal-*.seg files in dir.
func segNames(dir string) (map[string]bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make(map[string]bool)
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "wal-") && strings.HasSuffix(e.Name(), ".seg") {
			names[e.Name()] = true
		}
	}
	return names, nil
}

// TestCheckpointTruncatesOnlyCovered holds the checkpointer's unlink rule —
// every sealed segment below the cut — to the old coverage scan: whatever a
// checkpoint unlinks, wal.CoveredSegments over the same directory, just
// before the unlink, must call covered.  Checkpoints run beside committing
// writers, beside a prepared-but-undecided branch, and beside a commit held
// between its append and its merge (the grace wait must outlast it:
// without the wait the held commit's segment goes, and the oracle fails).
// A crash at the end recovers every acknowledged commit and the branch.
func TestCheckpointTruncatesOnlyCovered(t *testing.T) {
	dir := t.TempDir()
	s := openCheckpointable(t, dir)
	if err := s.FinishRecovery(); err != nil {
		t.Fatal(err)
	}
	accs := []*Object{accountNamed(s, "w0"), accountNamed(s, "w1"), accountNamed(s, "p")}

	// The oracle runs at the "truncate" failpoint: after the publish, before
	// the first unlink.
	var covered, present map[string]bool
	defer func() { wal.CheckpointFailpoint = nil }()
	wal.CheckpointFailpoint = func(stage string) error {
		if stage != "truncate" {
			return nil
		}
		ck, err := wal.LoadCheckpoint(dir)
		if err != nil || ck == nil {
			return fmt.Errorf("oracle: LoadCheckpoint = %v, %v", ck, err)
		}
		segs, err := wal.CoveredSegments(dir, math.MaxInt, ck)
		if err != nil {
			return err
		}
		covered = make(map[string]bool)
		for _, sg := range segs {
			covered[sg.Name] = true
		}
		present, err = segNames(dir)
		return err
	}
	checkpoint := func() error {
		covered, present = nil, nil
		if err := s.Checkpoint(); err != nil {
			return err
		}
		after, err := segNames(dir)
		if err != nil {
			return err
		}
		for n := range present {
			if !after[n] && !covered[n] {
				return fmt.Errorf("checkpoint unlinked %s, which the coverage scan would keep", n)
			}
		}
		ck, err := wal.LoadCheckpoint(dir)
		if err != nil || ck == nil || len(ck.Pending) != 1 || ck.Pending[0].Tx != "P1" {
			return fmt.Errorf("published checkpoint %v (%v) does not carry the undecided branch P1", ck, err)
		}
		return nil
	}

	br := s.BeginBranch(nil, "P1")
	if _, err := accs[2].Call(br, adt.CreditInv(7)); err != nil {
		t.Fatal(err)
	}
	if _, err := br.Prepare(); err != nil {
		t.Fatal(err)
	}

	// The hook is installed before the writers start and removed after
	// they stop; holdNext arms it.
	var holdNext atomic.Bool
	held, release := make(chan struct{}), make(chan struct{})
	appendedHook = func() {
		if holdNext.CompareAndSwap(true, false) {
			close(held)
			<-release
		}
	}
	defer func() { appendedHook = nil }()

	var acked [2]atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	stopWriters := sync.OnceFunc(func() { close(stop); wg.Wait() })
	defer stopWriters()
	for w := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				tx := s.Begin()
				if _, err := accs[w].Call(tx, adt.CreditInv(1)); err != nil {
					t.Error(err)
					_ = tx.Abort()
					return
				}
				if err := tx.Commit(); err != nil {
					t.Error(err)
					return
				}
				acked[w].Add(1)
			}
		}()
	}
	for range 3 {
		time.Sleep(5 * time.Millisecond)
		if err := checkpoint(); err != nil {
			t.Fatal(err)
		}
	}

	// Hold the next commit between its append and its merge, and
	// checkpoint beside it.
	holdNext.Store(true)
	<-held
	done := make(chan error, 1)
	go func() { done <- checkpoint() }()
	select {
	case err := <-done:
		close(release)
		t.Fatalf("checkpoint finished while a logged commit was unmerged (err %v)", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := checkpoint(); err != nil {
		t.Fatal(err)
	}
	stopWriters()
	if s.CheckpointStats().SegmentsRemoved == 0 {
		t.Fatal("no checkpoint unlinked anything: the oracle saw nothing")
	}

	s.CrashLog()
	s2 := openCheckpointable(t, dir)
	accs2 := []*Object{accountNamed(s2, "w0"), accountNamed(s2, "w1"), accountNamed(s2, "p")}
	if pend := s2.RecoveredPending(); len(pend) != 1 || pend[0].ID != "P1" {
		t.Fatalf("pending after restart = %+v, want [P1]", pend)
	}
	if err := s2.FinishRecovery(); err != nil {
		t.Fatal(err)
	}
	for w := range 2 {
		if got, want := adt.AccountBalance(accs2[w].CommittedState()), acked[w].Load(); got != want {
			t.Errorf("w%d: recovered balance %d, acknowledged %d", w, got, want)
		}
	}
	s2.Close()
}

// TestCheckpointReadsNoSegment: a checkpoint of built-in objects reads no
// segment and no checkpoint file, retains no folded operation, and costs
// the same allocations after 1k and after 10k commits since the last one.
// The comparison is like for like: every checkpoint here unlinks exactly
// one segment (the one the previous checkpoint's rotation sealed), each
// measured checkpoint starts from a collected heap — a GC cycle landing
// inside one empties the pools it then refills — and each side takes the
// fewest allocations of three checkpoints, dropping what other goroutines
// allocate meanwhile.
func TestCheckpointReadsNoSegment(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSystem(Options{Durability: &Durability{Dir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.FinishRecovery(); err != nil {
		t.Fatal(err)
	}
	var accs []*Object
	for i := range 64 {
		accs = append(accs, accountNamed(s, fmt.Sprintf("a%02d", i)))
	}
	pay := func(n int) {
		for i := range n {
			tx := s.Begin()
			for _, o := range []*Object{accs[i%64], accs[(i*7+3)%64]} {
				if _, err := o.Call(tx, adt.CreditInv(1)); err != nil {
					t.Fatal(err)
				}
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	checkpoint := func() uint64 {
		t.Helper()
		var before, after runtime.MemStats
		reads, removed := wal.FileReads.Load(), s.CheckpointStats().SegmentsRemoved
		runtime.GC()
		runtime.ReadMemStats(&before)
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if n := wal.FileReads.Load() - reads; n != 0 {
			t.Fatalf("checkpoint read %d segment or checkpoint files, want 0", n)
		}
		if n := s.CheckpointStats().SegmentsRemoved - removed; n != 1 {
			t.Fatalf("checkpoint unlinked %d segments, want 1", n)
		}
		return after.Mallocs - before.Mallocs
	}
	fewest := func(commits int) uint64 {
		least := uint64(math.MaxUint64)
		for range 3 {
			pay(commits)
			least = min(least, checkpoint())
		}
		return least
	}
	pay(100)
	if err := s.Checkpoint(); err != nil { // the first checkpoint, not measured
		t.Fatal(err)
	}
	small := fewest(1000)
	large := fewest(10000)
	for _, o := range accs {
		if n := len(o.retained); n != 0 {
			t.Fatalf("%s retained %d folded entries; a durable spec needs none", o.name, n)
		}
	}
	t.Logf("checkpoint allocations: %d after 1k commits, %d after 10k", small, large)
	if raceEnabled {
		return // allocation counts shift under the race detector
	}
	if d := math.Abs(float64(large)-float64(small)) / float64(small); d > 0.10 {
		t.Fatalf("checkpoint allocations grew with traffic: %d after 1k commits, %d after 10k", small, large)
	}
}

// TestUnregisteredObjectSurvivesCheckpoint: while a recovered object is
// unclaimed its records are in no snapshot, so no checkpoint may unlink a
// segment — and the previous checkpoint's image of it is carried along —
// until a restart that registers it recovers every operation.
func TestUnregisteredObjectSurvivesCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s := openCheckpointable(t, dir)
	if err := s.FinishRecovery(); err != nil {
		t.Fatal(err)
	}
	acc, other := accountOn(s), accountNamed(s, "other")
	for range 3 {
		credit(t, s, acc, 10)
	}
	if err := s.Checkpoint(); err != nil { // acc's first 30 go into the image
		t.Fatal(err)
	}
	credit(t, s, acc, 5)
	credit(t, s, other, 1)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openCheckpointable(t, dir)
	other2 := accountNamed(s2, "other") // nobody registers acc
	if err := s2.FinishRecovery(); err != nil {
		t.Fatal(err)
	}
	if !s2.HasUnclaimedRecovery("acc") {
		t.Fatal("acc not marked unclaimed")
	}
	segs := segFiles(t, dir)
	for range 3 {
		credit(t, s2, other2, 1)
		if err := s2.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if n := segFiles(t, dir); n < segs {
			t.Fatalf("a checkpoint unlinked segments while acc was unclaimed: %d -> %d", segs, n)
		}
		segs = segFiles(t, dir)
	}
	if st := s2.CheckpointStats(); st.SegmentsRemoved != 0 {
		t.Fatalf("stats = %+v, want no segment removed", st)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	s3 := openCheckpointable(t, dir)
	acc3, other3 := accountOn(s3), accountNamed(s3, "other")
	if err := s3.FinishRecovery(); err != nil {
		t.Fatal(err)
	}
	if got := adt.AccountBalance(acc3.CommittedState()); got != 35 {
		t.Fatalf("acc recovered %d, want 35", got)
	}
	if got := adt.AccountBalance(other3.CommittedState()); got != 4 {
		t.Fatalf("other recovered %d, want 4", got)
	}
	s3.Close()
}
