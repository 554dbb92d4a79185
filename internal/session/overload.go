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
	// High is the load-score watermark past which one more enhancement
	// layer is shed; 0 selects 0.85.
	High float64
	// Low is the watermark below which one shed layer is restored; the
	// gap to High is the hysteresis band. 0 selects 0.60.
	Low float64
	// MaxShed bounds how many layers may be shed; 0 selects one less
	// than the session template's layer count (base layer always sends).
	MaxShed int
	// Hold is the minimum dwell between level transitions, damping
	// oscillation on a noisy load signal; 0 selects 500ms.
	Hold time.Duration
	// Every is the evaluation cadence in the server driver; 0 selects
	// 50ms.
	Every time.Duration
}

// Enabled reports whether the controller is armed at all.
func (c OverloadConfig) Enabled() bool { return c.Capacity > 0 }

// withDefaults fills zero-valued fields; layers is the session
// template's layer count (3 for classic sessions).
func (c OverloadConfig) withDefaults(layers int) OverloadConfig {
	if c.High == 0 {
		c.High = 0.85
	}
	if c.Low == 0 {
		c.Low = 0.60
	}
	if c.MaxShed <= 0 || c.MaxShed > layers-1 {
		c.MaxShed = layers - 1
	}
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
	cfg        OverloadConfig
	level      int
	lastChange time.Time
}

// NewOverload builds a controller for a session template with the given
// layer count (3 for classic sessions).
func NewOverload(cfg OverloadConfig, layers int) *Overload {
	if layers <= 1 {
		layers = 3
	}
	return &Overload{cfg: cfg.withDefaults(layers)}
}

// Config returns the defaulted configuration.
func (o *Overload) Config() OverloadConfig { return o.cfg }

// Level returns the current shed level.
func (o *Overload) Level() int { return o.level }

// Update re-evaluates the shed level against sig at instant now and
// reports the (possibly new) level plus whether it changed. Transitions
// move one layer at a time and dwell at least Hold between moves: shed
// when the score crosses High, restore when it falls below Low —
// crossing High always sheds before occupancy can reach 1.0, so layers
// are traded away before any hello is refused for table space.
func (o *Overload) Update(now time.Time, sig loadSignals) (level int, changed bool) {
	score := sig.Score()
	held := !o.lastChange.IsZero() && now.Sub(o.lastChange) < o.cfg.Hold
	switch {
	case score >= o.cfg.High && o.level < o.cfg.MaxShed && !held:
		o.level++
	case score <= o.cfg.Low && o.level > 0 && !held:
		o.level--
	default:
		return o.level, false
	}
	o.lastChange = now
	return o.level, true
}
