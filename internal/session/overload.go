package session

import (
	"time"

	"repro/internal/units"
)

// OverloadConfig parameterizes the server-wide overload controller: the
// graceful-degradation layer that sheds enhancement layers before the
// server rejects a single session, restoring them with hysteresis when
// load recedes. The paper's premise — degrade quality, not service —
// applied at the server rather than the queue.
type OverloadConfig struct {
	// Capacity is the aggregate-demand budget the controller protects:
	// the sum of per-session controller rates is compared against it.
	// Set it above the physical bottleneck — it is the policy point
	// where the server starts trading enhancement layers for headroom,
	// not the link rate. 0 disables the controller entirely.
	Capacity units.BitRate
	// Hold is the minimum dwell between level transitions, damping
	// oscillation on a noisy load signal; 0 selects 500ms.
	Hold time.Duration
	// Every is the evaluation cadence in the server driver; 0 selects
	// 50ms.
	Every time.Duration
}

// Enabled reports whether the controller is armed at all.
func (c OverloadConfig) Enabled() bool { return c.Capacity > 0 }

// The load-score watermarks: past shedHigh one more enhancement layer is
// shed, below restoreLow one shed layer is restored; the gap between them
// is the hysteresis band.
const shedHigh, restoreLow = 0.85, 0.60

// withDefaults fills zero-valued fields.
func (c OverloadConfig) withDefaults() OverloadConfig {
	if c.Hold <= 0 {
		c.Hold = 500 * time.Millisecond
	}
	if c.Every <= 0 {
		c.Every = 50 * time.Millisecond
	}
	return c
}

// loadSignals are the controller inputs, each normalized so 1.0 means
// "at the limit". The score is their max: any one saturated dimension is
// overload, whichever it is.
type loadSignals struct {
	// Occupancy is table length over MaxSessions.
	Occupancy float64
	// Backlog is the share of the hand-off's chunk buffers in flight
	// (queued for a worker or being pumped); at 1 the driver is waiting
	// for a worker to return one.
	Backlog float64
	// Lateness is the wheel driver's smoothed lag behind its tick,
	// normalized by lateHorizon ticks.
	Lateness float64
	// Demand is the aggregate controller rate over Capacity.
	Demand float64
}

// Score folds the signals into the controller's scalar load.
func (ls loadSignals) Score() float64 {
	score := ls.Occupancy
	if ls.Backlog > score {
		score = ls.Backlog
	}
	if ls.Lateness > score {
		score = ls.Lateness
	}
	if ls.Demand > score {
		score = ls.Demand
	}
	return score
}

// lateHorizon is the wheel lag, in ticks, that counts as fully
// overloaded (Lateness 1.0): a driver persistently ten ticks behind
// cannot hold any session's pacing deadline.
const lateHorizon = 10

// Overload is the hysteresis state machine deciding the server-wide
// shed level: 0 sends everything, level n drops the top n enhancement
// layers (never the base). It is a plain virtual-clocked value — one
// goroutine (the server driver) calls Update; the server publishes the
// resulting level through an atomic the sessions read.
type Overload struct {
	cfg OverloadConfig
	// maxShed is the session template's layer count less one: the base
	// layer always sends.
	maxShed    int
	level      int
	lastChange time.Time
}

// NewOverload builds a controller for a session template with the given
// layer count (3 for classic sessions).
func NewOverload(cfg OverloadConfig, layers int) *Overload {
	if layers <= 1 {
		layers = 3
	}
	return &Overload{cfg: cfg.withDefaults(), maxShed: layers - 1}
}

// Update re-evaluates the shed level against sig at instant now and
// reports the (possibly new) level plus whether it changed. Transitions
// move one layer at a time and dwell at least Hold between moves: shed
// when the score crosses shedHigh, restore when it falls below
// restoreLow — crossing shedHigh always sheds before occupancy can reach 1.0, so layers
// are traded away before any hello is refused for table space.
func (o *Overload) Update(now time.Time, sig loadSignals) (level int, changed bool) {
	score := sig.Score()
	held := !o.lastChange.IsZero() && now.Sub(o.lastChange) < o.cfg.Hold
	switch {
	case score >= shedHigh && o.level < o.maxShed && !held:
		o.level++
	case score <= restoreLow && o.level > 0 && !held:
		o.level--
	default:
		return o.level, false
	}
	o.lastChange = now
	return o.level, true
}
