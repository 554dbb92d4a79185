package fgs

import (
	"fmt"
	"time"

	"repro/internal/cc"
	"repro/internal/packet"
	"repro/internal/units"
)

// SenderConfig is what a Sender plans frames with. The two end hosts build
// it from the fields of the same names in their own configs (pels.Config,
// session.Config), and default and validate those fields here.
type SenderConfig struct {
	Frame         FrameSpec
	FrameInterval time.Duration
	Gamma         GammaConfig
	RedShare      RedShare
	Layers        int           // priority layers a frame is split into
	NewScaler     func() Scaler // nil means ConstantScaler
}

// WithDefaults fills the zero fields with the paper's values: the CIF
// Foreman frame, the paper's γ controller, RedShareTotal and 3 layers.
// FrameInterval has no shared default; each end host sets its own.
func (c SenderConfig) WithDefaults() SenderConfig {
	if c.Frame == (FrameSpec{}) {
		c.Frame = DefaultFrameSpec()
	}
	if c.Gamma == (GammaConfig{}) {
		c.Gamma = DefaultGammaConfig()
	}
	if c.RedShare == 0 {
		c.RedShare = RedShareTotal
	}
	if c.Layers == 0 {
		c.Layers = 3
	}
	return c
}

// Validate reports configuration errors.
func (c SenderConfig) Validate() error {
	if err := c.Frame.Validate(); err != nil {
		return err
	}
	if err := c.Gamma.Validate(); err != nil {
		return err
	}
	if c.Layers < 2 || c.Layers > packet.MaxLayers {
		return fmt.Errorf("fgs: layers must be in [2,%d], got %d", packet.MaxLayers, c.Layers)
	}
	return nil
}

// MKC returns m defaulted for this stream: the zero value selects
// cc.DefaultMKCConfig, and an unset MaxRate becomes R_max (DESIGN §7.2). A
// rate above R_max is never offered to the network, so no label would ever
// push it back.
func (c SenderConfig) MKC(m cc.MKCConfig) cc.MKCConfig {
	if m == (cc.MKCConfig{}) {
		m = cc.DefaultMKCConfig()
	}
	if m.MaxRate <= 0 {
		m.MaxRate = c.Frame.MaxRate(c.FrameInterval)
	}
	return m
}

// Sender is the paper's end host without its transport (§4.2, §5, Fig. 4
// right). At each frame boundary it sizes x_i from a rate and splits the
// frame by the γ ladder; each fresh router label steps the rate controller
// once per epoch and steps γ, or resets γ when the label's router changed.
// It has no clock, lock or goroutine, and does not allocate after Init:
// pels.Source (simulator) and session.Session (live) each embed one and
// drive it. A Sender must not be copied after Init, because its plan points
// into it. The fields a packet touches come first, so that a live session's
// wake reads few cache lines.
type Sender struct {
	plan   LayerPlan             // the frame in flight; Counts is counts[:Layers]
	total  int                   // plan.Total()
	next   int                   // plan index of the next packet to Take
	frames int                   // frames planned: the next frame's number
	counts [packet.MaxLayers]int // plan's backing array

	ctrl       cc.Controller
	scaler     Scaler
	gamma      Gamma
	pk         Packetizer
	interval   time.Duration
	share      RedShare
	router     int // router of the last accepted label
	haveRouter bool
}

// Init makes s a sender with the defaulted cfg and rate controller ctrl.
func (s *Sender) Init(cfg SenderConfig, ctrl cc.Controller) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	var scaler Scaler = ConstantScaler{}
	if cfg.NewScaler != nil {
		scaler = cfg.NewScaler()
	}
	*s = Sender{ctrl: ctrl, scaler: scaler, gamma: Gamma{cfg: cfg.Gamma}, pk: Packetizer{spec: cfg.Frame},
		interval: cfg.FrameInterval, share: cfg.RedShare}
	s.gamma.Reset()
	s.plan.Counts = s.counts[:cfg.Layers]
	return nil
}

// PlanFrame plans the next frame at rate: x_i from the scaler, split by the
// γ ladder (paper §4.2). It returns the frame's packet count, 0 when the
// budget buys nothing (a frame spec with no base layer).
//
//pelsvet:noalloc
func (s *Sender) PlanFrame(rate units.BitRate) int {
	budget := s.scaler.Budget(s.frames, rate, s.interval)
	s.pk.PlanLadder(&s.plan, s.frames, budget, s.gamma.Value(), s.share)
	s.total = s.plan.Total()
	s.next = 0
	s.frames++
	return s.total
}

// Pending returns how many packets of the frame in flight are still to Take.
func (s *Sender) Pending() int { return s.total - s.next }

// Layer returns the priority layer of the next packet. It panics when
// nothing is pending.
func (s *Sender) Layer() int { return s.plan.Layer(s.next) }

// Take hands out the next packet of the frame in flight: its frame number,
// its index within the frame and its priority layer. It panics when nothing
// is pending.
//
//pelsvet:noalloc
func (s *Sender) Take() (frame, index, layer int) {
	index = s.next
	layer = s.plan.Layer(index)
	s.next++
	return s.plan.Frame, index, layer
}

// OnFeedback offers a label echoed back from the path. The controller's
// dedup accepts it once per router epoch; it then steps the controller and
// γ. If its router differs from the last accepted label's (a route change
// or gateway swap), γ restarts from its initial value instead: the loss
// history it integrated belongs to a queue the flow no longer traverses.
func (s *Sender) OnFeedback(fb packet.Feedback) (accepted, routerChanged bool) {
	if !fb.Valid || !s.ctrl.OnFeedback(fb) {
		return false, false
	}
	routerChanged = s.haveRouter && fb.RouterID != s.router
	if routerChanged {
		s.gamma.Reset()
	} else {
		s.gamma.Update(fb.Loss)
	}
	s.router, s.haveRouter = fb.RouterID, true
	return true, routerChanged
}

// Rate returns the controller's current rate.
func (s *Sender) Rate() units.BitRate { return s.ctrl.Rate() }

// Gamma returns the current red fraction γ.
func (s *Sender) Gamma() float64 { return s.gamma.Value() }

// Controller returns the rate controller.
func (s *Sender) Controller() cc.Controller { return s.ctrl }

// Frames returns the number of frames planned.
func (s *Sender) Frames() int { return s.frames }
