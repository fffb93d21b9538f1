package main

import (
	"errors"
	"testing"
	"time"

	"hybridcc"
	"hybridcc/internal/adt"
	"hybridcc/internal/baseline"
	"hybridcc/internal/depend"
)

// The traced runs call Begin and Commit themselves and so carry a copy of
// the facade's retry rule and policy, and the depend probe a copy of its
// derivation depths.  These tests pin the copies to what the facade can be
// seen to do.

// TestRetryPolicyMatchesFacade counts the bodies Atomically runs under a
// body that keeps failing, and times its pauses.
func TestRetryPolicyMatchesFacade(t *testing.T) {
	sys := hybridcc.NewSystem()
	bodiesUnder := func(fail error) (bodies int, elapsed time.Duration) {
		start := time.Now()
		err := sys.Atomically(func(*hybridcc.Tx) error { bodies++; return fail })
		if !errors.Is(err, fail) {
			t.Errorf("Atomically under %v returned %v", fail, err)
		}
		return bodies, time.Since(start)
	}

	fatal := errors.New("not worth a retry")
	if retryable(fatal) {
		t.Error("the benchmark retries an unknown error")
	}
	if n, _ := bodiesUnder(fatal); n != 1 {
		t.Errorf("the facade ran %d bodies under an unknown error, want 1", n)
	}
	// ErrShardUnavailable and ErrShardDown are paced by the facade's slower
	// policy for lost shards, which no run of the benchmark meets: a dead
	// shard fails the run.
	for _, fail := range []error{hybridcc.ErrTimeout, hybridcc.ErrDeadlock, hybridcc.ErrCommitAborted} {
		if !retryable(fail) {
			t.Errorf("the benchmark does not retry %v", fail)
		}
		n, elapsed := bodiesUnder(fail)
		if n != maxAttempts {
			t.Errorf("the facade ran %d bodies under %v, the benchmark's traced runs would run %d", n, fail, maxAttempts)
		}
		// Between the bodies lie maxAttempts-1 pauses of half to all of
		// the policy's raw delay.
		var raw time.Duration
		for attempt := 0; attempt < maxAttempts-1; attempt++ {
			raw += contention.Raw(attempt)
		}
		if elapsed < raw/2 || elapsed > 3*raw {
			t.Errorf("the facade paused %v in all under %v, the benchmark's policy pauses %v to %v", elapsed, fail, raw/2, raw)
		}
	}
}

// TestDerivationDepthsReproduceAccountTable checks that the depths of the
// depend probe derive, from Account's serial specification, the conflict
// relation the engine runs Account under.
func TestDerivationDepthsReproduceAccountTable(t *testing.T) {
	universe := baseline.UniverseFor("Account")
	derived := depend.Compile(depend.DeriveHybrid(adt.NewAccount(), universe, deriveH1Len, deriveH2Len), universe, 0)
	engine := depend.Compile(baseline.ConflictFor("hybrid", "Account"), universe, 0)
	for _, a := range universe {
		for _, b := range universe {
			if got, want := derived.Conflicts(a, b), engine.Conflicts(a, b); got != want {
				t.Errorf("%v against %v: derived conflict %v, the engine's table says %v", a, b, got, want)
			}
		}
	}
}
