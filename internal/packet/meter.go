package packet

import (
	"time"

	"repro/internal/units"
)

// MinLoss bounds the router's loss p from below. Negative p is the spare-
// capacity signal MKC grows on, but an idle window would give p → −∞; at
// p = −2 and β = 0.5 a source at most doubles its rate per interval.
const MinLoss = -2.0

// Meter is the PELS router's measurement core (paper eq. 11). It counts the
// bytes S of a window and, when its driver closes the window, sets R, p and
// the epoch z. It has no clock, lock or goroutine: aqm.Feedback closes a
// window on a fixed simulator tick, wire.Gateway once T has elapsed.
type Meter struct {
	interval time.Duration
	capacity units.BitRate
	bytes    int64 // S: bytes counted in the current window
	epoch    uint64
	loss     float64
}

// NewMeter returns a meter for windows of length T = interval against
// capacity C. It panics unless both are positive.
func NewMeter(interval time.Duration, capacity units.BitRate) Meter {
	if interval <= 0 {
		panic("packet: meter interval must be positive")
	}
	m := Meter{interval: interval, loss: MinLoss}
	m.SetCapacity(capacity)
	return m
}

// Add counts n bytes toward S.
//
//pelsvet:noalloc
func (m *Meter) Add(n int) { m.bytes += int64(n) }

// Close ends a window that lasted window and returns its R = S/window, for
// the driver's series: p = max((R − C)/R, MinLoss), MinLoss when R = 0;
// z = z + 1; S = 0.
//
//pelsvet:noalloc
func (m *Meter) Close(window time.Duration) units.BitRate {
	rate := units.RateFromBytes(m.bytes, window)
	m.loss = MinLoss
	if rate > 0 {
		m.loss = max((float64(rate)-float64(m.capacity))/float64(rate), MinLoss)
	}
	m.epoch++
	m.bytes = 0
	return rate
}

// Label returns the feedback label (router ID, z, p) a router stamps.
func (m *Meter) Label(routerID int) Feedback {
	return Feedback{RouterID: routerID, Epoch: m.epoch, Loss: m.loss, Valid: true}
}

// Epoch returns z, the number of windows closed.
func (m *Meter) Epoch() uint64 { return m.epoch }

// Loss returns p of the last window closed, MinLoss before the first.
func (m *Meter) Loss() float64 { return m.loss }

// Interval returns T.
func (m *Meter) Interval() time.Duration { return m.interval }

// SetCapacity changes C for the windows closed from now on. It panics
// unless c > 0.
func (m *Meter) SetCapacity(c units.BitRate) {
	if c <= 0 {
		panic("packet: meter capacity must be positive")
	}
	m.capacity = c
}
