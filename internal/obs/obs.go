// Package obs is the repository's unified observability layer: a registry
// of named counters, gauges and time series shared by the
// deterministic simulator and the live wire stack.
//
// The package itself never reads the wall clock — it records whatever
// timestamps its callers hand it. Simulator-side series are stamped from
// sim.Engine virtual time; wire-side series are stamped from an injected
// time.Now (elapsed since stream start). That split is what lets one
// registry serve both worlds without breaking determinism, and it is
// enforced by pelsvet's walltime analyzer, which covers this package.
//
// Hot-path instruments are cheap: counters and gauges are single atomic
// operations, so they are safe to bump from the wire stack's goroutines;
// series take a mutex. Registration (Counter, Gauge,
// Series, ...) is get-or-create and safe for concurrent use, but is meant
// for setup paths, not per-packet code — hold on to the returned handle.
package obs

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/stats"
)

// Counter is a monotonically written cumulative value (it may be
// decremented to repay an overcount, e.g. a loss gap later filled by a
// reordered packet). The zero value is ready to use.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (which may be negative).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a last-value-wins float. The zero value is ready to use.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the last stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Registry holds named instruments. Use NewRegistry; the zero value is not
// usable. All methods are safe for concurrent use.
//
// Names are flat, dot-separated strings ("sender.rate_kbps",
// "queue.red.dropped"). A name identifies exactly one instrument kind:
// re-registering an existing name with the same kind returns the existing
// instrument, while reusing it as a different kind panics — that is always
// a wiring bug, and silently shadowing a metric would corrupt exports.
type Registry struct {
	mu       sync.Mutex
	kinds    map[string]string
	counters map[string]*Counter
	gauges   map[string]*Gauge
	gaugeFns map[string]func() float64
	series   map[string]*Series
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		kinds:    make(map[string]string),
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		gaugeFns: make(map[string]func() float64),
		series:   make(map[string]*Series),
	}
}

func (r *Registry) claimLocked(name, kind string) {
	if name == "" {
		panic("obs: empty metric name")
	}
	if have, ok := r.kinds[name]; ok && have != kind {
		panic(fmt.Sprintf("obs: %q already registered as %s, requested as %s", name, have, kind))
	}
	r.kinds[name] = kind
}

// Counter returns the counter registered under name, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.claimLocked(name, "counter")
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.claimLocked(name, "gauge")
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// GaugeFunc registers a pull-style gauge: fn is evaluated at snapshot time.
// It suits values something else already maintains (queue counters, heap
// sizes). Re-registering a name replaces the function, so an instrumented
// object can be swapped out between runs.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	if fn == nil {
		panic("obs: GaugeFunc called with nil function")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.claimLocked(name, "gaugefunc")
	r.gaugeFns[name] = fn
}

// Series returns the time series registered under name, creating it if
// needed.
func (r *Registry) Series(name string) *Series {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.claimLocked(name, "series")
	s, ok := r.series[name]
	if !ok {
		s = &Series{ts: stats.NewTimeSeries(name)}
		r.series[name] = s
	}
	return s
}
