package commitproto

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hybridcc/internal/histories"
)

// scatterDirect is the test double of a wire transport: a Direct whose
// started messages are delivered on a goroutine and completed by waiting
// for it, so a round's replies arrive after every site's Start has returned
// — as over sockets — without sockets (transportKinds puts it beside the
// bare Direct).  It also polices the Transport contract: at most one
// message in flight per site, and every completion run exactly once.
type scatterDirect struct {
	*Direct
	t        *testing.T
	inFlight atomic.Int32
}

func newScatterDirect(t *testing.T, name string, p Participant) *scatterDirect {
	s := &scatterDirect{Direct: NewDirect(name, p), t: t}
	t.Cleanup(func() {
		if n := s.inFlight.Load(); n != 0 {
			t.Errorf("%s: %d started messages never completed", name, n)
		}
	})
	return s
}

// start delivers on a goroutine and returns the wait for it.
func (s *scatterDirect) start(deliver func()) (wait func()) {
	if s.inFlight.Add(1) != 1 {
		s.t.Errorf("%s: message started while another is in flight", s.Name())
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		deliver()
	}()
	return func() {
		<-done
		if s.inFlight.Add(-1) != 0 {
			s.t.Errorf("%s: completion run twice or out of turn", s.Name())
		}
	}
}

func (s *scatterDirect) StartPrepare(ctx context.Context, tx histories.TxID, timeout time.Duration) func() (histories.Timestamp, bool, bool) {
	var answer func() (histories.Timestamp, bool, bool)
	wait := s.start(func() { answer = s.Direct.StartPrepare(ctx, tx, timeout) })
	return func() (histories.Timestamp, bool, bool) {
		wait()
		return answer()
	}
}

func (s *scatterDirect) StartCommit(ctx context.Context, tx histories.TxID, ts histories.Timestamp, timeout time.Duration) func() bool {
	var answer func() bool
	wait := s.start(func() { answer = s.Direct.StartCommit(ctx, tx, ts, timeout) })
	return func() bool {
		wait()
		return answer()
	}
}

func (s *scatterDirect) StartAbort(ctx context.Context, tx histories.TxID, timeout time.Duration) func() bool {
	var answer func() bool
	wait := s.start(func() { answer = s.Direct.StartAbort(ctx, tx, timeout) })
	return func() bool {
		wait()
		return answer()
	}
}

// eventLog is an ordered record of what a round did, shared by its sites
// and its hooks.
type eventLog struct {
	mu     sync.Mutex
	events []string
}

func (l *eventLog) add(format string, args ...any) {
	l.mu.Lock()
	l.events = append(l.events, fmt.Sprintf(format, args...))
	l.mu.Unlock()
}

// tracedSite is a site that does nothing but log which half of which
// message ran, so a test can pin the exact order of a round.
type tracedSite struct {
	name string
	log  *eventLog
	vote bool
}

func (s *tracedSite) Name() string { return s.name }

func (s *tracedSite) StartPrepare(context.Context, histories.TxID, time.Duration) func() (histories.Timestamp, bool, bool) {
	s.log.add("start prepare %s", s.name)
	return func() (histories.Timestamp, bool, bool) {
		s.log.add("finish prepare %s", s.name)
		return 1, s.vote, true
	}
}

func (s *tracedSite) decision(kind string) func() bool {
	s.log.add("start %s %s", kind, s.name)
	return func() bool {
		s.log.add("finish %s %s", kind, s.name)
		return true
	}
}

func (s *tracedSite) StartCommit(context.Context, histories.TxID, histories.Timestamp, time.Duration) func() bool {
	return s.decision("commit")
}

func (s *tracedSite) StartAbort(context.Context, histories.TxID, time.Duration) func() bool {
	return s.decision("abort")
}

// tracedRound runs one round over sites A, B and C (B voting as given) with
// the decision hook logging, and returns the decision and the event log.
func tracedRound(t *testing.T, bVotes bool, logErr error, wrap func(i int, tr Transport) Transport) (Decision, []string) {
	t.Helper()
	log := &eventLog{}
	trs := make([]Transport, 3)
	for i := range trs {
		trs[i] = &tracedSite{name: string(rune('A' + i)), log: log, vote: i != 1 || bVotes}
		if wrap != nil {
			trs[i] = wrap(i, trs[i])
		}
	}
	coord := coordinator()
	coord.SetDecisionLog(func(histories.TxID, histories.Timestamp, int) error {
		log.add("decision logged")
		return logErr
	})
	dec, _, err := coord.RunTransports(context.Background(), "T1", trs)
	if (err != nil) != (logErr != nil) {
		t.Fatalf("round error = %v with decision-log error %v", err, logErr)
	}
	return dec, log.events
}

// round is the expected log of one message round over A, B, C: every
// start before any finish.
func round(kind string) []string {
	var ev []string
	for _, half := range []string{"start", "finish"} {
		for _, site := range []string{"A", "B", "C"} {
			ev = append(ev, half+" "+kind+" "+site)
		}
	}
	return ev
}

// A round starts each of its messages at every site before it gathers any
// reply, and writes the decision log between the last vote and the first
// commit message.
func TestScatterCommitRoundOrder(t *testing.T) {
	dec, got := tracedRound(t, true, nil, nil)
	want := slices.Concat(round("prepare"), []string{"decision logged"}, round("commit"))
	if dec != Committed || !slices.Equal(got, want) {
		t.Fatalf("decision %v, events:\n%q\nwant:\n%q", dec, got, want)
	}
}

// A no-vote from B does not stop the gather: C's vote is still read before
// any abort is started, and every site — the no-voter included — gets the
// abort.
func TestScatterGathersEveryVoteBeforeAborting(t *testing.T) {
	dec, got := tracedRound(t, false, nil, nil)
	want := slices.Concat(round("prepare"), round("abort"))
	if dec != Aborted || !slices.Equal(got, want) {
		t.Fatalf("decision %v, events:\n%q\nwant:\n%q", dec, got, want)
	}
}

// A decision the log refuses is never started at any site: the round turns
// into an abort round.
func TestScatterDecisionLogFailureAborts(t *testing.T) {
	dec, got := tracedRound(t, true, errors.New("disk full"), nil)
	want := slices.Concat(round("prepare"), []string{"decision logged"}, round("abort"))
	if dec != Aborted || !slices.Equal(got, want) {
		t.Fatalf("decision %v, events:\n%q\nwant:\n%q", dec, got, want)
	}
}

// Every transport takes the same path, whatever it is: a bare Direct in
// place of one traced site leaves the other sites' events as they were, and
// a fault view with an empty script around every site leaves the round's
// event log identical to the bare round's.
func TestScatterNeedsEveryTransportCapable(t *testing.T) {
	_, bare := tracedRound(t, true, nil, nil)
	t.Run("one direct", func(t *testing.T) {
		dec, got := tracedRound(t, true, nil, func(i int, tr Transport) Transport {
			if i == 2 {
				return NewDirect("C", newFake(1, true))
			}
			return tr
		})
		atC := func(ev string) bool { return strings.HasSuffix(ev, " C") }
		want := slices.DeleteFunc(slices.Clone(bare), atC)
		if dec != Committed || !slices.Equal(got, want) {
			t.Fatalf("decision %v, events:\n%q\nwant:\n%q", dec, got, want)
		}
	})
	t.Run("fault-wrapped", func(t *testing.T) {
		ctl := NewFaultTransport()
		dec, got := tracedRound(t, true, nil, func(_ int, tr Transport) Transport { return ctl.Wrap(tr) })
		if dec != Committed || !slices.Equal(got, bare) {
			t.Fatalf("decision %v, events:\n%q\nwant:\n%q", dec, got, bare)
		}
	})
}
