package wire

import (
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/units"
)

// GatewayConfig parameterizes the live marking gateway.
type GatewayConfig struct {
	// RouterID identifies this gateway in feedback labels.
	RouterID int
	// Interval is T, the feedback measurement period (paper uses 30 ms).
	Interval time.Duration
	// Capacity is C, the rate available to PELS traffic — normally the
	// bandwidth of the link the gateway fronts.
	Capacity units.BitRate
	// Now overrides the clock for tests; nil means time.Now.
	//pelsvet:allow deadknob test-clock seam: tests step the gateway's windows on a synthetic clock
	Now func() time.Time
	// Obs, if non-nil, registers the gateway's epoch, loss, and stamp
	// gauges under the "gateway." prefix.
	Obs *obs.Registry
}

// Gateway is the live driver of the router core packet.Meter plus the
// drop-priority classifier: installed as a link's Marker, it counts every
// PELS datagram toward S, closes a window once T has elapsed (paper eq. 11),
// and stamps (router ID, epoch, p) into every passing PELS datagram with
// the max-loss override of eq. 8.
//
// Windows close lazily from packet arrivals rather than on a timer
// goroutine: an idle link stamps nothing, so nothing is lost, and a window
// is closed over its actually elapsed length, which keeps R accurate under
// scheduler jitter.
type Gateway struct {
	cfg GatewayConfig

	mu          sync.Mutex
	meter       packet.Meter
	windowStart time.Time
	started     bool
	stamped     uint64
	ignored     uint64
}

var _ Marker = (*Gateway)(nil)

// NewGateway returns a gateway. It panics unless Interval and Capacity are
// positive.
func NewGateway(cfg GatewayConfig) *Gateway {
	meter := packet.NewMeter(cfg.Interval, cfg.Capacity)
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	g := &Gateway{cfg: cfg, meter: meter}
	if cfg.Obs != nil {
		cfg.Obs.GaugeFunc("gateway.epoch", func() float64 { return float64(g.Epoch()) })
		cfg.Obs.GaugeFunc("gateway.loss", g.Loss)
		cfg.Obs.GaugeFunc("gateway.stamped", func() float64 { return float64(g.Stamped()) })
		cfg.Obs.GaugeFunc("gateway.ignored", func() float64 {
			g.mu.Lock()
			defer g.mu.Unlock()
			return float64(g.ignored)
		})
	}
	return g
}

// Mark implements Marker: PELS data datagrams are counted toward S and
// stamped with the current label; everything else (feedback, hello,
// best-effort, non-PELS noise) passes through untouched.
//
//pelsvet:noalloc
func (g *Gateway) Mark(b []byte) bool {
	color, ok := PeekColor(b)
	if !ok || !color.IsPELS() {
		g.mu.Lock()
		g.ignored++
		g.mu.Unlock()
		return false
	}
	g.mu.Lock()
	g.advanceLocked(g.cfg.Now())
	g.meter.Add(len(b))
	fb := g.meter.Label(g.cfg.RouterID)
	g.stamped++
	g.mu.Unlock()
	// Stamp outside anything fancy: the datagram was just validated by
	// PeekColor, so this cannot fail.
	_ = StampFeedback(b, fb)
	return false
}

// Priority implements Marker: control datagrams (feedback, hello, or
// anything unparseable) rank first, then the PELS layers in the order of
// packet.Color.Layer — the order queue.Priority serves — and best-effort
// video last, so congestion drops consume probes first, exactly like the
// strict-priority PELS queue of paper Fig. 4.
//
//pelsvet:noalloc
func (g *Gateway) Priority(b []byte) int {
	color, ok := PeekColor(b)
	if !ok {
		return 0
	}
	if layer, pels := color.Layer(); pels {
		return 1 + layer
	}
	return 1 + packet.MaxLayers
}

// advanceLocked closes the window once T has elapsed by now, over its real
// length; the first arrival opens the first window.
func (g *Gateway) advanceLocked(now time.Time) {
	if !g.started {
		g.windowStart = now
		g.started = true
		return
	}
	if elapsed := now.Sub(g.windowStart); elapsed >= g.meter.Interval() {
		g.meter.Close(elapsed)
		g.windowStart = now
	}
}

// Epoch returns the current epoch number z.
func (g *Gateway) Epoch() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.meter.Epoch()
}

// Loss returns the most recently computed loss p(k).
func (g *Gateway) Loss() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.meter.Loss()
}

// Stamped returns how many datagrams have been counted and stamped.
func (g *Gateway) Stamped() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.stamped
}

// MarkerSwitch is a Marker whose underlying implementation can be swapped
// while traffic flows — the live mechanism for a route change or gateway
// restart: the link keeps one Marker for its lifetime, and chaos drivers
// replace the Gateway behind it (new RouterID, epoch counter back at
// zero). A nil inner marker stamps nothing and ranks everything equal.
type MarkerSwitch struct {
	mu    sync.RWMutex
	inner Marker
}

// NewMarkerSwitch returns a switch initially delegating to m (may be nil).
func NewMarkerSwitch(m Marker) *MarkerSwitch {
	return &MarkerSwitch{inner: m}
}

// Set atomically replaces the delegate marker.
func (s *MarkerSwitch) Set(m Marker) {
	s.mu.Lock()
	s.inner = m
	s.mu.Unlock()
}

// Mark delegates to the current marker.
func (s *MarkerSwitch) Mark(b []byte) bool {
	s.mu.RLock()
	m := s.inner
	s.mu.RUnlock()
	if m == nil {
		return false
	}
	return m.Mark(b)
}

// Priority delegates to the current marker.
func (s *MarkerSwitch) Priority(b []byte) int {
	s.mu.RLock()
	m := s.inner
	s.mu.RUnlock()
	if m == nil {
		return 0
	}
	return m.Priority(b)
}
