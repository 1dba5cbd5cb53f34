// Package leakcheck is a stdlib-only goroutine-leak detector for
// tests: it snapshots runtime.NumGoroutine when armed and, at test
// cleanup, fails the test if the count has not come back down. It is
// how the serving tier's tests prove that the Close/drain paths join
// every goroutine they started.
//
// Usage, first line of a test:
//
//	leakcheck.Check(t)
//
// Goroutines wind down asynchronously after a Close returns (connection
// handlers observing a closed socket, tickers draining), so the check
// retries with a short backoff before declaring a leak, and dumps all
// goroutine stacks when it does.
//
// The count-delta approach needs a quiet baseline: arm it only in
// tests that do not run in parallel with others, or the neighbours'
// goroutines show up in the delta.
package leakcheck

import (
	"runtime"
	"time"
)

// TB is the subset of testing.TB the checker needs, so the package
// stays importable outside _test files without depending on testing
// internals.
type TB interface {
	Helper()
	Errorf(format string, args ...any)
	Cleanup(func())
}

// patience bounds how long the cleanup waits for stragglers to wind
// down before declaring a leak. A variable so the package's own tests
// can fail fast.
var patience = 5 * time.Second

// Check arms the leak detector for the current test. It must be called
// before the test spawns anything; the registered cleanup runs after
// the test body (and its other cleanups) finish.
func Check(t TB) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		t.Helper()
		after, ok := settle(before, patience)
		if ok {
			return
		}
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Errorf("leaked %d goroutine(s): %d before the test, %d after; stacks:\n%s",
			after-before, before, after, buf[:n])
	})
}

// settle polls the goroutine count until it drops back to the
// baseline or the deadline expires. Exiting goroutines disappear from
// the count a little after their function returns, hence the retry
// rather than a single sample.
func settle(before int, patience time.Duration) (after int, ok bool) {
	deadline := time.Now().Add(patience)
	for sleep := time.Millisecond; ; sleep *= 2 {
		after = runtime.NumGoroutine()
		if after <= before {
			return after, true
		}
		if time.Now().After(deadline) {
			return after, false
		}
		if sleep > 100*time.Millisecond {
			sleep = 100 * time.Millisecond
		}
		time.Sleep(sleep)
	}
}
