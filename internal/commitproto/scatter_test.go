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

// scatterDirect is the test double of a wire transport: a Direct with the
// Scatterer capability, whose started messages are delivered on a goroutine
// and completed by waiting for it, so the coordinator's scatter–gather path
// runs without sockets (transportKinds puts it beside the two inline
// kinds).  It also polices the Scatterer contract: at most one message in
// flight per site, and every completion run exactly once.
type scatterDirect struct {
	*Direct
	t        *testing.T
	inFlight atomic.Int32
}

var _ Scatterer = (*scatterDirect)(nil)

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
	var (
		lower    histories.Timestamp
		vote, ok bool
	)
	wait := s.start(func() { lower, vote, ok = s.Direct.Prepare(ctx, tx, timeout) })
	return func() (histories.Timestamp, bool, bool) {
		wait()
		return lower, vote, ok
	}
}

func (s *scatterDirect) StartCommit(ctx context.Context, tx histories.TxID, ts histories.Timestamp, timeout time.Duration) func() bool {
	var ok bool
	wait := s.start(func() { ok = s.Direct.Commit(ctx, tx, ts, timeout) })
	return func() bool {
		wait()
		return ok
	}
}

func (s *scatterDirect) StartAbort(ctx context.Context, tx histories.TxID, timeout time.Duration) func() bool {
	var ok bool
	wait := s.start(func() { ok = s.Direct.Abort(ctx, tx, timeout) })
	return func() bool {
		wait()
		return ok
	}
}

// The blocking methods are the two halves back to back, as the capability
// requires of a real transport.
func (s *scatterDirect) Prepare(ctx context.Context, tx histories.TxID, timeout time.Duration) (histories.Timestamp, bool, bool) {
	return s.StartPrepare(ctx, tx, timeout)()
}

func (s *scatterDirect) Commit(ctx context.Context, tx histories.TxID, ts histories.Timestamp, timeout time.Duration) bool {
	return s.StartCommit(ctx, tx, ts, timeout)()
}

func (s *scatterDirect) Abort(ctx context.Context, tx histories.TxID, timeout time.Duration) bool {
	return s.StartAbort(ctx, tx, timeout)()
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

// tracedSite is a scatter-capable site that does nothing but log which half
// of which message ran, so a test can pin the exact order of a round.  Its
// blocking methods log "call": they must not run in a scattered round.
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

func (s *tracedSite) Prepare(context.Context, histories.TxID, time.Duration) (histories.Timestamp, bool, bool) {
	s.log.add("call prepare %s", s.name)
	return 1, s.vote, true
}

func (s *tracedSite) Commit(context.Context, histories.TxID, histories.Timestamp, time.Duration) bool {
	s.log.add("call commit %s", s.name)
	return true
}

func (s *tracedSite) Abort(context.Context, histories.TxID, time.Duration) bool {
	s.log.add("call abort %s", s.name)
	return true
}

// tracedRound runs one round over sites A, B and C (B voting as given) with
// both decision hooks logging, and returns the decision and the event log.
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
	coord.SetDecisionLog(func(histories.TxID, histories.Timestamp) error {
		log.add("decision logged")
		return logErr
	})
	coord.SetDecisionResolved(func(histories.TxID, histories.Timestamp) { log.add("decision resolved") })
	dec, _, err := coord.RunTransports(context.Background(), "T1", trs)
	if (err != nil) != (logErr != nil) {
		t.Fatalf("round error = %v with decision-log error %v", err, logErr)
	}
	return dec, log.events
}

// round is the expected log of one scattered message round over A, B, C:
// every start before any finish.
func round(kind string) []string {
	var ev []string
	for _, half := range []string{"start", "finish"} {
		for _, site := range []string{"A", "B", "C"} {
			ev = append(ev, half+" "+kind+" "+site)
		}
	}
	return ev
}

// A round whose transports all have the capability scatters each of its
// messages to every site before it gathers any reply, writes the decision
// log between the last vote and the first commit message, and resolves the
// decision after the last acknowledgement.
func TestScatterCommitRoundOrder(t *testing.T) {
	dec, got := tracedRound(t, true, nil, nil)
	want := slices.Concat(round("prepare"), []string{"decision logged"}, round("commit"), []string{"decision resolved"})
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
// into a scattered abort.
func TestScatterDecisionLogFailureAborts(t *testing.T) {
	dec, got := tracedRound(t, true, errors.New("disk full"), nil)
	want := slices.Concat(round("prepare"), []string{"decision logged"}, round("abort"))
	if dec != Aborted || !slices.Equal(got, want) {
		t.Fatalf("decision %v, events:\n%q\nwant:\n%q", dec, got, want)
	}
}

// The path is chosen by what the transports are: one site without the
// capability — a bare Direct, or a FaultTransport around a capable
// transport — puts the whole round on the blocking methods.
func TestScatterNeedsEveryTransportCapable(t *testing.T) {
	wraps := map[string]func(i int, tr Transport) Transport{
		"one direct": func(i int, tr Transport) Transport {
			if i == 2 {
				return NewDirect("C", newFake(1, true))
			}
			return tr
		},
		"fault-wrapped": func(_ int, tr Transport) Transport { return NewFaultTransport(tr) },
	}
	for name, wrap := range wraps {
		t.Run(name, func(t *testing.T) {
			dec, got := tracedRound(t, true, nil, wrap)
			if dec != Committed {
				t.Fatalf("decision %v", dec)
			}
			for _, ev := range got {
				if !strings.HasPrefix(ev, "call") && !strings.HasPrefix(ev, "decision") {
					t.Fatalf("a half ran in a round that must not scatter: %q", got)
				}
			}
			if !slices.Contains(got, "call commit A") {
				t.Fatalf("blocking commit never reached A: %q", got)
			}
		})
	}
}
