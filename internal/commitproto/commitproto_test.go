package commitproto

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"hybridcc/internal/histories"
	"hybridcc/internal/tstamp"
)

// fakeParticipant records protocol calls and answers with configured votes.
type fakeParticipant struct {
	mu        sync.Mutex
	lower     histories.Timestamp
	vote      bool
	prepared  []histories.TxID
	committed map[histories.TxID]histories.Timestamp
	aborted   []histories.TxID
	delay     time.Duration
}

func newFake(lower histories.Timestamp, vote bool) *fakeParticipant {
	return &fakeParticipant{
		lower:     lower,
		vote:      vote,
		committed: make(map[histories.TxID]histories.Timestamp),
	}
}

func (f *fakeParticipant) Prepare(tx histories.TxID) (histories.Timestamp, bool) {
	if f.delay > 0 {
		time.Sleep(f.delay)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.prepared = append(f.prepared, tx)
	return f.lower, f.vote
}

func (f *fakeParticipant) Commit(tx histories.TxID, ts histories.Timestamp) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.committed[tx] = ts
}

func (f *fakeParticipant) Abort(tx histories.TxID) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.aborted = append(f.aborted, tx)
}

func (f *fakeParticipant) committedTS(tx histories.TxID) (histories.Timestamp, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	ts, ok := f.committed[tx]
	return ts, ok
}

func (f *fakeParticipant) abortedCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.aborted)
}

func coordinator() *Coordinator {
	return NewCoordinator(tstamp.NewSource(), 500*time.Millisecond)
}

// run is one round over bare direct transports for the given participants.
func run(c *Coordinator, ctx context.Context, tx histories.TxID, ps ...Participant) (Decision, histories.Timestamp, error) {
	trs := make([]Transport, len(ps))
	for i, p := range ps {
		trs[i] = NewDirect(string(rune('A'+i)), p)
	}
	return c.RunTransports(ctx, tx, trs)
}

func TestNoParticipants(t *testing.T) {
	_, _, err := coordinator().RunTransports(context.Background(), "T5", nil)
	if err != ErrNoParticipants {
		t.Errorf("err = %v, want ErrNoParticipants", err)
	}
}

func TestTimestampsUniqueAcrossRounds(t *testing.T) {
	a := newFake(0, true)
	coord := coordinator()
	seen := make(map[histories.Timestamp]bool)
	for i := 0; i < 20; i++ {
		tx := histories.TxID(rune('a' + i))
		dec, ts, err := run(coord, context.Background(), tx, a)
		if err != nil || dec != Committed {
			t.Fatalf("round %d: dec=%v err=%v", i, dec, err)
		}
		if seen[ts] {
			t.Fatalf("timestamp %d reused", ts)
		}
		seen[ts] = true
	}
}

func TestConcurrentRoundsDistinctTimestamps(t *testing.T) {
	coord := coordinator()
	const rounds = 16
	out := make(chan histories.Timestamp, rounds)
	var wg sync.WaitGroup
	for i := 0; i < rounds; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f := newFake(histories.Timestamp(i), true)
			dec, ts, err := run(coord, context.Background(), histories.TxID(rune('A'+i)), f)
			if err != nil || dec != Committed {
				t.Errorf("round %d failed: %v %v", i, dec, err)
				out <- 0
				return
			}
			out <- ts
		}(i)
	}
	wg.Wait()
	close(out)
	seen := make(map[histories.Timestamp]bool)
	for ts := range out {
		if ts == 0 {
			continue
		}
		if seen[ts] {
			t.Fatalf("timestamp %d issued twice", ts)
		}
		seen[ts] = true
	}
}

func TestDecisionString(t *testing.T) {
	if Committed.String() != "committed" || Aborted.String() != "aborted" {
		t.Error("Decision rendering")
	}
}

func TestDirectCrashIdempotent(t *testing.T) {
	f := newFake(0, true)
	d := NewDirect("A", f)
	d.Crash()
	d.Crash() // must not panic
	if d.Name() != "A" {
		t.Errorf("Name = %q", d.Name())
	}
	if _, _, ok := d.StartPrepare(context.Background(), "T1", time.Second)(); ok || len(f.prepared) != 0 {
		t.Error("a crashed site must be unreachable and must not reach its participant")
	}
}

func TestCancelDuringSlowPrepare(t *testing.T) {
	// One participant answers promptly, the other stalls in Prepare past
	// the caller's patience.  Without the cancel this round would commit
	// (both vote yes); with it, the round must abort with ctx's error, and
	// the prompt yes-voter must still receive its abort — outside ctx —
	// so no participant is left holding locks for a dead round.
	prompt, slow := newFake(1, true), newFake(2, true)
	slow.delay = 300 * time.Millisecond
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	coord := NewCoordinator(tstamp.NewSource(), 10*time.Second)
	dec, _, err := run(coord, ctx, "T1", prompt, slow)
	if dec != Aborted {
		t.Fatalf("decision = %v, want aborted", dec)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if prompt.abortedCount() != 1 {
		t.Errorf("prompt participant got %d aborts, want 1 (delivered outside ctx)", prompt.abortedCount())
	}
	if _, ok := prompt.committedTS("T1"); ok {
		t.Error("prompt participant committed a cancelled round")
	}
}

// cancelOnCommit cancels a context the moment the first commit decision
// reaches it, modelling a caller that gives up mid-phase-2.
type cancelOnCommit struct {
	*fakeParticipant
	cancel context.CancelFunc
}

func (c *cancelOnCommit) Commit(tx histories.TxID, ts histories.Timestamp) {
	c.cancel()
	c.fakeParticipant.Commit(tx, ts)
}

func TestPhaseTwoIgnoresCancellation(t *testing.T) {
	// Once the decision is commit, cancellation must not tear it: even
	// with ctx cancelled while the decision is being distributed, every
	// participant still learns it.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	a := &cancelOnCommit{fakeParticipant: newFake(3, true), cancel: cancel}
	b := newFake(4, true)
	dec, ts, err := run(coordinator(), ctx, "T1", a, b)
	if err != nil || dec != Committed {
		t.Fatalf("round: %v %v", dec, err)
	}
	for name, f := range map[string]*fakeParticipant{"A": a.fakeParticipant, "B": b} {
		if got, ok := f.committedTS("T1"); !ok || got != ts {
			t.Errorf("participant %s: commit ts = (%d,%v), want (%d,true)", name, got, ok, ts)
		}
	}
}

// TestDecisionLogOrdering: the decision hook fires after votes are in and
// the timestamp is drawn, but before any participant is told to commit —
// the write-ahead rule for 2PC decisions.
func TestDecisionLogOrdering(t *testing.T) {
	a, b := newFake(10, true), newFake(25, true)
	c := coordinator()
	var logged []histories.Timestamp
	c.SetDecisionLog(func(tx histories.TxID, ts histories.Timestamp, _ int) error {
		if tx != "T1" {
			t.Errorf("decision log saw tx %s, want T1", tx)
		}
		// No participant may have learned the outcome yet.
		if _, ok := a.committedTS("T1"); ok {
			t.Error("participant A committed before the decision was logged")
		}
		if _, ok := b.committedTS("T1"); ok {
			t.Error("participant B committed before the decision was logged")
		}
		logged = append(logged, ts)
		return nil
	})

	dec, ts, err := run(c, context.Background(), "T1", a, b)
	if err != nil || dec != Committed {
		t.Fatalf("round = %v, %v, %v", dec, ts, err)
	}
	if len(logged) != 1 || logged[0] != ts {
		t.Fatalf("decision log got %v, round committed at %d", logged, ts)
	}
	if got, ok := a.committedTS("T1"); !ok || got != ts {
		t.Fatalf("participant A committed at %d/%v, want %d", got, ok, ts)
	}
}

// TestDecisionLogFailureAborts: if the decision cannot be made durable the
// round aborts — legal precisely because no participant saw the commit.
func TestDecisionLogFailureAborts(t *testing.T) {
	a, b := newFake(10, true), newFake(25, true)
	c := coordinator()
	logErr := errors.New("disk gone")
	c.SetDecisionLog(func(histories.TxID, histories.Timestamp, int) error { return logErr })

	dec, _, err := run(c, context.Background(), "T1", a, b)
	if dec != Aborted {
		t.Fatalf("decision = %v, want Aborted", dec)
	}
	if !errors.Is(err, logErr) {
		t.Fatalf("err = %v, want wrapped %v", err, logErr)
	}
	if _, ok := a.committedTS("T1"); ok {
		t.Fatal("participant A committed despite unlogged decision")
	}
	if a.abortedCount() != 1 || b.abortedCount() != 1 {
		t.Fatalf("aborts = %d/%d, want 1/1", a.abortedCount(), b.abortedCount())
	}
}
