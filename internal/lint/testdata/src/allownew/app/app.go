// Package app exercises //pelsvet:allow against the concurrency and
// allocation analyzers: each pair has an unsuppressed finding (the
// control) and an allowed twin that must stay silent. The whole-module
// names are known names here too.
package app

import "sync"

type counter struct {
	mu sync.Mutex
	n  int
}

func (c *counter) Bad() int {
	return c.n // want "counter\.n is guarded by \"mu\" but Bad never acquires c\.mu"
}

func (c *counter) Snapshot() int {
	//pelsvet:allow guarded stats snapshot tolerates one stale read
	return c.n
}

//pelsvet:noalloc
func bad() []int {
	return make([]int, 16) // want "make allocates"
}

//pelsvet:noalloc
func warm() []int {
	//pelsvet:allow noalloc one-time warm-up buffer, not on the hot path
	return make([]int, 16)
}

func leak() {
	go func() { _ = 1 }() // want "goroutine is not tied to a lifecycle"
}

func detach() {
	//pelsvet:allow goexit process-lifetime logger, bounded by main exit
	go func() { _ = 1 }()
}

// Oracle is kept for tests.
//
//pelsvet:allow deadexport paper-equation oracle
func Oracle() float64 { return 1 }

// ClockConfig has a test-clock seam.
type ClockConfig struct {
	//pelsvet:allow deadknob test-clock seam
	Now func() int
}
