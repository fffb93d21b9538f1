//go:build !race

package commitproto

import (
	"context"
	"testing"
	"time"

	"hybridcc/internal/histories"
	"hybridcc/internal/tstamp"
)

// Allocation ceilings for one commit round over reused Direct transports,
// the shape of the benchmark's commitproto.round_p50_us probe.  These are
// hard regression gates (CI's allocation-ceilings step runs them without
// -race, which changes allocation counts).  Steady state, as measured: one
// allocation per site, its prepare completion, which carries the vote; a
// decision's completion is a static function and the round's own state
// lives on the stack.  When rounds of three or more Directs ran on a worker
// pool, a 3-site round cost 22 (and a 2-site round 1).
const (
	// round2AllocCeiling bounds a 2-site round (steady state 2).
	round2AllocCeiling = 2
	// round3AllocCeiling bounds a 3-site round (steady state 3).
	round3AllocCeiling = 3
)

// noopParticipant votes yes with no lower bound and applies nothing.
type noopParticipant struct{}

func (noopParticipant) Prepare(histories.TxID) (histories.Timestamp, bool) { return 0, true }
func (noopParticipant) Commit(histories.TxID, histories.Timestamp)         {}
func (noopParticipant) Abort(histories.TxID)                               {}

func TestAllocCeilingDirectRound(t *testing.T) {
	for _, c := range []struct {
		sites, ceiling int
	}{{2, round2AllocCeiling}, {3, round3AllocCeiling}} {
		coord := NewCoordinator(tstamp.NewSource(), time.Second)
		trs := make([]Transport, c.sites)
		for i := range trs {
			trs[i] = NewDirect(string(rune('a'+i)), noopParticipant{})
		}
		ctx := context.Background()
		allocs := testing.AllocsPerRun(1000, func() {
			if d, _, err := coord.RunTransports(ctx, "T1", trs); err != nil || d != Committed {
				t.Fatalf("round: %v %v", d, err)
			}
		})
		t.Logf("%d sites: %.1f allocs/round", c.sites, allocs)
		if allocs > float64(c.ceiling) {
			t.Errorf("%d-site round: %.1f allocs, ceiling %d", c.sites, allocs, c.ceiling)
		}
	}
}
