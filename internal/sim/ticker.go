package sim

import "time"

// Ticker invokes a callback at a fixed period of simulated time. It is the
// building block for router feedback intervals (paper eq. 11, computed every
// T time units) and paced packet senders.
type Ticker struct {
	period time.Duration
	fn     func()
	timer  *Timer
	active bool
}

// NewTicker creates a ticker that calls fn every period once started.
// period must be positive.
func NewTicker(eng *Engine, period time.Duration, fn func()) *Ticker {
	if period <= 0 {
		panic("sim: NewTicker with non-positive period")
	}
	if fn == nil {
		panic("sim: NewTicker with nil callback")
	}
	t := &Ticker{period: period, fn: fn}
	t.timer = eng.NewTimer(t.tick)
	return t
}

// Start schedules the first tick one period from now. Starting an active
// ticker is a no-op.
func (t *Ticker) Start() {
	if t.active {
		return
	}
	t.active = true
	t.timer.Reset(t.period)
}

// startAt schedules the first tick at absolute time at and repeats every
// period thereafter.
func (t *Ticker) startAt(at time.Duration) {
	if t.active {
		return
	}
	t.active = true
	t.timer.Reset(at - t.timer.eng.now)
}

// Stop cancels future ticks. The ticker may be restarted with Start.
func (t *Ticker) Stop() {
	if !t.active {
		return
	}
	t.active = false
	t.timer.Stop()
}

// setPeriod changes the period used for ticks scheduled after the current
// one. period must be positive.
func (t *Ticker) setPeriod(period time.Duration) {
	if period <= 0 {
		panic("sim: setPeriod with non-positive period")
	}
	t.period = period
}

func (t *Ticker) tick() {
	t.fn()
	if t.active {
		t.timer.Reset(t.period)
	}
}
