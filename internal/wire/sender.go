package wire

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/cc"
	"repro/internal/fgs"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/units"
)

// SenderConfig parameterizes a live streaming session. The FGS frame
// spec, γ controller, and MKC configs are the exact types the simulator
// uses — the live stack swaps only the transport underneath them.
type SenderConfig struct {
	// Flow identifies the stream in every datagram.
	Flow uint32
	// Frame is the FGS packetization; PacketSize is the on-wire datagram
	// size and must exceed HeaderSize.
	Frame fgs.FrameSpec
	// FrameInterval is the video frame period.
	FrameInterval time.Duration
	// MKC parameterizes the rate controller (ignored when Controller is
	// set). Zero value selects cc.DefaultMKCConfig.
	MKC cc.MKCConfig
	// Controller optionally replaces MKC with any cc.Controller.
	Controller cc.Controller
	// Gamma parameterizes the red-fraction controller. Zero value
	// selects fgs.DefaultGammaConfig.
	Gamma fgs.GammaConfig
	// RedShare selects the γ denominator; 0 means fgs.RedShareTotal.
	RedShare fgs.RedShare
	// Layers selects the number of priority layers each frame is split
	// into. 0 and 3 keep the classic green/yellow/red plan; 2 or
	// 4..packet.MaxLayers plan with the default γ ladder (fgs.Ladder).
	// The wire format itself always carries the three paper bands: each
	// layer is mapped onto a band via LayerBands before encoding.
	Layers int
	// LayerBands maps each priority layer to its on-wire band; it must
	// have Layers entries, each Green, Yellow, or Red. Nil selects
	// DefaultLayerBands(Layers): base layer → Green, top layer → Red,
	// everything between → Yellow. Ignored for classic 3-layer sessions.
	LayerBands []packet.Color
	// Scaler maps rate to per-frame byte budgets; nil means
	// fgs.ConstantScaler.
	Scaler fgs.Scaler
	// BurstBytes is the pacer bucket size; 0 means 8 datagrams.
	BurstBytes int
	// MaxFrames stops the sender after that many frames; 0 streams until
	// the context is canceled.
	MaxFrames int
	// StaleTimeout arms the stale-feedback watchdog: when no fresh
	// feedback has been accepted for this long, the sender multiplies its
	// effective rate by StaleDecay, once per elapsed timeout horizon,
	// never below the MKC minimum rate. The first accepted feedback
	// restores the controller rate in full (the controller state itself is
	// never decayed — only the pacing on top of it). 0 disables the
	// watchdog.
	StaleTimeout time.Duration
	// StaleDecay is the per-horizon decay factor in (0,1); 0 selects 0.5.
	StaleDecay float64
	// Obs, if non-nil, registers the sender's counters and control series
	// under the "sender." prefix. Series are timed as wall-clock offsets
	// from the sender's construction.
	Obs *obs.Registry
	// Now overrides the clock for tests; nil means time.Now.
	Now func() time.Time
}

// WithDefaults fills zero-valued fields.
func (c SenderConfig) WithDefaults() SenderConfig {
	if c.Frame == (fgs.FrameSpec{}) {
		c.Frame = fgs.DefaultFrameSpec()
	}
	if c.FrameInterval <= 0 {
		c.FrameInterval = 20 * time.Millisecond
	}
	if c.MKC == (cc.MKCConfig{}) {
		c.MKC = cc.DefaultMKCConfig()
	}
	if c.Gamma == (fgs.GammaConfig{}) {
		c.Gamma = fgs.DefaultGammaConfig()
	}
	if c.RedShare == 0 {
		c.RedShare = fgs.RedShareTotal
	}
	if c.Scaler == nil {
		c.Scaler = fgs.ConstantScaler{}
	}
	if c.BurstBytes <= 0 {
		c.BurstBytes = 8 * c.Frame.PacketSize
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.StaleDecay == 0 {
		c.StaleDecay = 0.5
	}
	if c.Layered() && c.LayerBands == nil {
		c.LayerBands = DefaultLayerBands(c.Layers)
	}
	return c
}

// Layered reports whether the configuration uses the generalized N-layer
// plan path rather than the classic 3-color one.
func (c SenderConfig) Layered() bool { return c.Layers != 0 && c.Layers != 3 }

// DefaultLayerBands returns the default layer→wire-band table for n
// layers: the base layer travels Green, the top (probe) layer Red, and
// every intermediate layer Yellow — preserving the paper's protection
// ordering on a 3-band wire.
func DefaultLayerBands(n int) []packet.Color {
	bands := make([]packet.Color, n)
	for i := range bands {
		switch {
		case i == 0:
			bands[i] = packet.Green
		case i == n-1:
			bands[i] = packet.Red
		default:
			bands[i] = packet.Yellow
		}
	}
	return bands
}

// Validate reports configuration errors.
func (c SenderConfig) Validate() error {
	if err := c.Frame.Validate(); err != nil {
		return err
	}
	if c.Frame.PacketSize <= HeaderSize {
		return fmt.Errorf("wire: packet size %d must exceed header size %d",
			c.Frame.PacketSize, HeaderSize)
	}
	if c.Frame.PacketSize > MaxDatagram {
		return fmt.Errorf("wire: packet size %d exceeds max datagram %d",
			c.Frame.PacketSize, MaxDatagram)
	}
	if c.StaleDecay < 0 || c.StaleDecay >= 1 {
		return fmt.Errorf("wire: stale decay %v must be in (0,1)", c.StaleDecay)
	}
	if c.Layers != 0 && (c.Layers < 2 || c.Layers > packet.MaxLayers) {
		return fmt.Errorf("wire: layers must be 0 (classic) or in [2,%d], got %d", packet.MaxLayers, c.Layers)
	}
	if c.Layered() && c.LayerBands != nil {
		if len(c.LayerBands) != c.Layers {
			return fmt.Errorf("wire: layer band table has %d entries for %d layers", len(c.LayerBands), c.Layers)
		}
		for i, b := range c.LayerBands {
			if !b.IsWireBand() {
				return fmt.Errorf("wire: layer %d mapped to non-band color %v", i, b)
			}
		}
	}
	return nil
}

// SenderStats is a snapshot of a sender's counters.
type SenderStats struct {
	Frames           int
	Datagrams        uint64
	Bytes            uint64
	FeedbackAccepted uint64
	Rate             units.BitRate
	Gamma            float64
	LastLoss         float64
	// StaleDecays counts watchdog rate decays, Recoveries the returns to
	// full controller rate, RouterChanges the feedback discontinuities
	// that reset γ. Degrade is the current watchdog multiplier (1 when
	// feedback is fresh).
	StaleDecays   uint64
	Recoveries    uint64
	RouterChanges uint64
	Degrade       float64
}

// Sender streams FGS frames over a net.PacketConn: at each frame boundary
// it sizes the byte budget x_i from the controller's rate, partitions it
// green/yellow/red with the γ controller (paper §4.2), and paces the
// datagrams with a wall-clock token bucket. Feedback datagrams from the
// receiver drive both control loops, exactly as ACKs do in the simulator.
type Sender struct {
	cfg  SenderConfig
	conn net.PacketConn
	peer net.Addr

	// pacer is internally synchronized (it has its own mutex): Run
	// reserves pacing debt without holding mu, so it deliberately sits
	// outside the mu paragraph.
	pacer *Pacer

	mu    sync.Mutex
	ctrl  cc.Controller
	gamma *fgs.Gamma
	pk    *fgs.Packetizer
	seq   map[packet.Color]uint64
	stats SenderStats

	// Layered (N≠3) sessions plan with the γ ladder and map each layer to
	// a wire band. layerPlan.Counts and gammas are per-frame scratch owned
	// by the Run goroutine (planFrameLayered fills them; only Run reads
	// them), so they need no lock despite being written inside one.
	layered   bool
	layerPlan fgs.LayerPlan
	gammas    []float64

	// Stale-feedback watchdog and feedback-discontinuity state.
	degrade        float64   //pelsvet:guards mu — effective-rate multiplier, 1 when fresh
	lastFeedbackAt time.Time //pelsvet:guards mu
	lastDecayAt    time.Time //pelsvet:guards mu
	lastRouterID   int       //pelsvet:guards mu
	haveRouter     bool      //pelsvet:guards mu

	start           time.Time
	obsDatagrams    *obs.Counter
	obsBytes        *obs.Counter
	obsFeedback     *obs.Counter
	obsStaleDecays  *obs.Counter
	obsRecoveries   *obs.Counter
	obsRouterChange *obs.Counter
	obsRate         *obs.Series
	obsGamma        *obs.Series
}

// minDegrade bounds the watchdog multiplier so a long outage cannot
// underflow it; ten halvings is already far below any useful video rate
// and the MKC minimum rate floors the effective rate anyway.
const minDegrade = 1.0 / 1024

// NewSender builds a session streaming to peer over conn. The conn is
// borrowed, not owned: Close remains the caller's job.
func NewSender(conn net.PacketConn, peer net.Addr, cfg SenderConfig) (*Sender, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ctrl := cfg.Controller
	if ctrl == nil {
		ctrl = cc.NewMKC(cfg.MKC)
	}
	gamma, err := fgs.NewGamma(cfg.Gamma)
	if err != nil {
		return nil, err
	}
	pk, err := fgs.NewPacketizer(cfg.Frame)
	if err != nil {
		return nil, err
	}
	s := &Sender{
		cfg:     cfg,
		conn:    conn,
		peer:    peer,
		ctrl:    ctrl,
		gamma:   gamma,
		pk:      pk,
		pacer:   NewPacer(ctrl.Rate(), cfg.BurstBytes),
		seq:     map[packet.Color]uint64{},
		degrade: 1,
		start:   cfg.Now(),
	}
	s.lastFeedbackAt = s.start
	if cfg.Layered() {
		s.layered = true
		s.layerPlan = fgs.LayerPlan{Counts: make([]int, cfg.Layers)}
		s.gammas = make([]float64, cfg.Layers-1)
	}
	if cfg.Obs != nil {
		s.obsDatagrams = cfg.Obs.Counter("sender.datagrams")
		s.obsBytes = cfg.Obs.Counter("sender.bytes")
		s.obsFeedback = cfg.Obs.Counter("sender.feedback_accepted")
		s.obsStaleDecays = cfg.Obs.Counter("sender.stale_decays")
		s.obsRecoveries = cfg.Obs.Counter("sender.recoveries")
		s.obsRouterChange = cfg.Obs.Counter("sender.router_changes")
		s.obsRate = cfg.Obs.Series("sender.rate_kbps")
		s.obsGamma = cfg.Obs.Series("sender.gamma")
	}
	return s, nil
}

// Run is the send loop: it blocks until MaxFrames frames have been sent
// or ctx is canceled. Feedback must be fed concurrently, either by
// ServeFeedback on the same conn or by HandleFeedback from an external
// demultiplexer (cmd/pelsd).
func (s *Sender) Run(ctx context.Context) error {
	payload := make([]byte, s.cfg.Frame.PacketSize-HeaderSize)
	buf := make([]byte, 0, s.cfg.Frame.PacketSize)
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()

	for frame := 0; s.cfg.MaxFrames == 0 || frame < s.cfg.MaxFrames; frame++ {
		s.checkStale()
		var plan fgs.PacketPlan
		var total int
		if s.layered {
			total = s.planFrameLayered(frame)
		} else {
			plan = s.planFrame(frame)
			total = plan.Total()
		}
		if total == 0 {
			// Degenerate budget: idle one frame interval instead of
			// spinning.
			if err := sleepCtx(ctx, timer, s.cfg.FrameInterval); err != nil {
				return err
			}
			continue
		}
		for idx := 0; idx < total; idx++ {
			var color packet.Color
			if s.layered {
				color = s.cfg.LayerBands[s.layerPlan.Layer(idx)]
			} else {
				color = plan.Color(idx)
			}
			if wait := s.pacer.Reserve(s.cfg.Frame.PacketSize, s.cfg.Now()); wait > 0 {
				if err := sleepCtx(ctx, timer, wait); err != nil {
					return err
				}
			}
			// Encoded after the wait, so the stamp is the instant of the
			// write (Header.Timestamp), not of the charge.
			h := Header{
				Type:      TypeData,
				Color:     color,
				Flow:      s.cfg.Flow,
				Frame:     uint32(frame),
				Index:     uint16(idx),
				Seq:       s.nextSeq(color),
				Timestamp: s.cfg.Now().UnixNano(),
			}
			var err error
			buf, err = AppendDatagram(buf[:0], h, payload)
			if err != nil {
				return err
			}
			if _, err := s.conn.WriteTo(buf, s.peer); err != nil {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				return fmt.Errorf("wire: send: %w", err)
			}
			s.mu.Lock()
			s.stats.Datagrams++
			s.stats.Bytes += uint64(len(buf))
			s.mu.Unlock()
			if s.obsDatagrams != nil {
				s.obsDatagrams.Inc()
				s.obsBytes.Add(int64(len(buf)))
			}
		}
		s.mu.Lock()
		s.stats.Frames = frame + 1
		s.mu.Unlock()
	}
	return nil
}

// planFrame sizes frame like the simulator source: x_i = scaler budget at
// the effective rate (controller rate times watchdog degradation),
// partitioned by the current γ.
func (s *Sender) planFrame(frame int) fgs.PacketPlan {
	s.mu.Lock()
	defer s.mu.Unlock()
	budget := s.cfg.Scaler.Budget(frame, s.effectiveRateLocked(), s.cfg.FrameInterval)
	return s.pk.PlanShare(frame, budget, s.gamma.Value(), s.cfg.RedShare)
}

// planFrameLayered is planFrame for N-layer sessions: the single γ drives
// the default ladder of split points, the plan lands in the sender's
// scratch (read by Run only), and the packet total is returned.
func (s *Sender) planFrameLayered(frame int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	budget := s.cfg.Scaler.Budget(frame, s.effectiveRateLocked(), s.cfg.FrameInterval)
	fgs.Ladder(s.gammas, s.gamma.Value())
	s.layerPlan.Frame = frame
	s.pk.PlanLayersInto(s.layerPlan.Counts, frame, budget, s.gammas, s.cfg.RedShare)
	return s.layerPlan.Total()
}

// effectiveRateLocked is the controller rate scaled by the watchdog
// multiplier, floored at the MKC minimum rate so a long feedback outage
// degrades the stream to its base layer instead of silencing it (the
// trickle is also what re-probes the path for recovery).
func (s *Sender) effectiveRateLocked() units.BitRate {
	r := units.BitRate(float64(s.ctrl.Rate()) * s.degrade)
	if min := s.cfg.MKC.MinRate; min > 0 && r < min {
		r = min
	}
	return r
}

// checkStale runs the watchdog at each frame boundary: past StaleTimeout
// without accepted feedback, decay the effective rate once per elapsed
// horizon until feedback returns.
func (s *Sender) checkStale() {
	if s.cfg.StaleTimeout <= 0 {
		return
	}
	now := s.cfg.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if now.Sub(s.lastFeedbackAt) < s.cfg.StaleTimeout {
		return
	}
	if now.Sub(s.lastDecayAt) < s.cfg.StaleTimeout {
		return // at most one decay per horizon
	}
	s.lastDecayAt = now
	if s.degrade *= s.cfg.StaleDecay; s.degrade < minDegrade {
		s.degrade = minDegrade
	}
	s.stats.StaleDecays++
	s.pacer.SetRate(s.effectiveRateLocked(), now)
	if s.obsStaleDecays != nil {
		s.obsStaleDecays.Inc()
		s.obsRate.Add(now.Sub(s.start), s.effectiveRateLocked().KbpsValue())
	}
}

func (s *Sender) nextSeq(c packet.Color) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.seq[c]
	s.seq[c] = n + 1
	return n
}

// HandleFeedback offers a feedback label to the controllers. It returns
// true when the label was fresh (new epoch) and the rate was updated; the
// pacer is retargeted and γ stepped in the same critical section, so the
// send loop always observes a consistent (rate, γ) pair.
func (s *Sender) HandleFeedback(fb packet.Feedback) bool {
	if !fb.Valid {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ctrl.OnFeedback(fb) {
		return false
	}
	now := s.cfg.Now()
	s.lastFeedbackAt = now
	if s.degrade != 1 {
		// The feedback loop is live again: the decayed multiplier served
		// its purpose, return to the controller's rate in one step.
		s.degrade = 1
		s.stats.Recoveries++
		if s.obsRecoveries != nil {
			s.obsRecoveries.Inc()
		}
	}
	if s.haveRouter && fb.RouterID != s.lastRouterID {
		// Feedback discontinuity: a route change or gateway swap moved the
		// bottleneck. The loss history γ integrated belongs to the old
		// queue — restart the red fraction from its initial value instead
		// of stepping it with a cross-router delta.
		s.gamma.Reset()
		s.stats.RouterChanges++
		if s.obsRouterChange != nil {
			s.obsRouterChange.Inc()
		}
	} else {
		s.gamma.Update(fb.Loss)
	}
	s.lastRouterID = fb.RouterID
	s.haveRouter = true
	s.stats.FeedbackAccepted++
	s.pacer.SetRate(s.effectiveRateLocked(), now)
	if s.obsFeedback != nil {
		s.obsFeedback.Inc()
		at := now.Sub(s.start)
		s.obsRate.Add(at, s.ctrl.Rate().KbpsValue())
		s.obsGamma.Add(at, s.gamma.Value())
	}
	return true
}

// ServeFeedback reads feedback datagrams from the sender's conn until ctx
// is canceled, feeding HandleFeedback. Use it when the sender owns the
// socket's read side (the loopback tests and examples); cmd/pelsd demuxes
// the socket itself and calls HandleFeedback directly.
func (s *Sender) ServeFeedback(ctx context.Context) error {
	buf := make([]byte, MaxDatagram+1)
	for {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		_ = s.conn.SetReadDeadline(s.cfg.Now().Add(50 * time.Millisecond))
		n, _, err := s.conn.ReadFrom(buf)
		switch {
		case err == nil:
		case errors.Is(err, os.ErrDeadlineExceeded):
			continue
		case errors.Is(err, net.ErrClosed):
			// A closed socket during shutdown is the expected exit; a
			// closed socket while the context is still live is a real
			// failure and must not be masked as a clean return.
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
			return fmt.Errorf("wire: feedback read: %w", err)
		default:
			return fmt.Errorf("wire: feedback read: %w", err)
		}
		h, _, err := DecodeDatagram(buf[:n])
		if err != nil || h.Type != TypeFeedback {
			continue // noise on the reverse path is dropped, not fatal
		}
		s.HandleFeedback(h.Feedback)
	}
}

// Stats returns a snapshot of the sender's counters and control state.
func (s *Sender) Stats() SenderStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Rate = s.ctrl.Rate()
	st.Gamma = s.gamma.Value()
	st.LastLoss = s.ctrl.LastLoss()
	st.Degrade = s.degrade
	return st
}

// sleepCtx sleeps d or returns early with ctx's error.
func sleepCtx(ctx context.Context, timer *time.Timer, d time.Duration) error {
	if !timer.Stop() {
		select {
		case <-timer.C:
		default:
		}
	}
	timer.Reset(d)
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}
