//go:build race

package memserver

// The race detector instruments channel operations and goroutine
// handoffs with allocations of its own, so allocation pins that cross
// the actor queues only hold in a non-race build.
func init() { raceEnabled = true }
