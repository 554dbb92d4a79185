package obs

import (
	"sync"
	"time"

	"repro/internal/stats"
)

// Series is a mutex-protected time series of (timestamp, value) samples.
// It is the registry-managed replacement for the ad-hoc OnCompute/OnUpdate
// callbacks experiments used to wire by hand.
//
// Timestamps are whatever the caller's clock domain provides: simulation
// time from sim.Engine.Now for deterministic code, or wall-clock elapsed
// time for the wire stack. A single series must stay in one domain.
type Series struct {
	mu sync.Mutex
	ts *stats.TimeSeries
}

// Add appends a sample at time at.
func (s *Series) Add(at time.Duration, v float64) {
	s.mu.Lock()
	s.ts.Add(at, v)
	s.mu.Unlock()
}

// Len returns the number of samples.
func (s *Series) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ts.Len()
}

// Last returns the most recent sample value, or 0 if empty.
func (s *Series) Last() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ts.Last()
}

// Snapshot returns an independent copy of the series, safe to read while
// writers keep appending.
func (s *Series) Snapshot() *stats.TimeSeries {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ts.Snapshot()
}

// TimeSeries returns the backing stats.TimeSeries without copying. It is
// for single-threaded consumers — the simulator experiments, which analyze
// series after (or between) engine runs on one goroutine. Concurrent
// readers must use Snapshot instead.
//
//pelsvet:allow guarded single-threaded accessor by contract (see doc); concurrent readers use Snapshot
func (s *Series) TimeSeries() *stats.TimeSeries { return s.ts }
