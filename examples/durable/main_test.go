package main

import (
	"testing"
	"time"
)

// TestRun runs the example twice in one temporary directory: the first
// run creates the log, the second recovers it and extends it.  The example
// exits the test binary through log.Fatal on any failure, so a broken
// example fails this test.
func TestRun(t *testing.T) {
	runExample(t, func() {
		main()
		main()
	})
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
