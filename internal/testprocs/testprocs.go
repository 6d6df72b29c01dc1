// Package testprocs lets a concurrency test demand the parallelism its
// property needs instead of skipping on a small box.
package testprocs

import (
	"runtime"
	"testing"
)

// AtLeast raises GOMAXPROCS to n for the rest of the test if it is lower,
// and returns the value in force. Tests that share a process run one at a
// time unless they call t.Parallel, which the callers do not.
func AtLeast(t testing.TB, n int) int {
	t.Helper()
	prev := runtime.GOMAXPROCS(0)
	if prev >= n {
		return prev
	}
	runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	return n
}
