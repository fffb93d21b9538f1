package main

import (
	"testing"
	"time"
)

// TestRun runs the example end to end in a temporary directory.  The
// example checks its own results and exits the test binary through
// log.Fatal when one is wrong, so a broken example fails this test.
func TestRun(t *testing.T) {
	runExample(t, main)
}

// runExample runs body under a deadline in a temporary directory.
func runExample(t *testing.T, body func()) {
	t.Chdir(t.TempDir())
	done := make(chan struct{})
	go func() {
		defer close(done)
		body()
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("example still running after 2 minutes")
	}
}
