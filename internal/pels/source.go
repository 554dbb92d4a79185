package pels

import (
	"time"

	"repro/internal/cc"
	"repro/internal/fgs"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/units"
)

// Source is the sending side of a streaming session. At each frame
// boundary it asks the congestion controller for the current rate, sizes
// the frame's byte budget x_i = r·interval, and partitions it with the γ
// controller (paper Fig. 4 right); packets are then paced continuously at
// the controller's rate. ACKs from the sink deliver router feedback to the
// controller and the γ loop.
type Source struct {
	cfg  Config
	eng  *sim.Engine
	net  *netsim.Network
	host *netsim.Host
	dst  int

	ctrl        cc.Controller
	gamma       *fgs.Gamma
	gammaSeries *obs.Series // nil until RecordGamma
	packetizer  *fgs.Packetizer

	frame   int
	plan    fgs.LayerPlan // the frame in flight; Counts is counts[:cfg.Layers]
	counts  [packet.MaxLayers]int
	nextIdx int
	pace    *sim.Timer // fires emitNext for the next paced packet
	started bool
	stopped bool

	pktsSent  int64
	bytesSent int64

	// Feedback-discontinuity tracking: lastRouter is the router of the
	// most recently applied label; a change resets γ (see HandlePacket).
	lastRouter int
	haveRouter bool
}

var _ netsim.App = (*Source)(nil)

// NewSource builds a source on host streaming to the node dst. The source
// registers itself for the flow's ACKs on host.
func NewSource(net *netsim.Network, host *netsim.Host, dst int, cfg Config) (*Source, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var ctrl cc.Controller
	if cfg.ControllerFactory != nil {
		ctrl = cfg.ControllerFactory()
	}
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
	s := &Source{
		cfg:        cfg,
		eng:        net.Engine(),
		net:        net,
		host:       host,
		dst:        dst,
		ctrl:       ctrl,
		gamma:      gamma,
		packetizer: pk,
	}
	s.pace = s.eng.NewTimer(s.emitNext)
	s.plan.Counts = s.counts[:cfg.Layers]
	host.Attach(cfg.Flow, s)
	return s, nil
}

// Start begins streaming at the given simulation time (first frame sent
// immediately at that instant).
func (s *Source) Start(at time.Duration) {
	s.eng.At(at, func() {
		if s.stopped || s.started {
			return
		}
		s.started = true
		s.planFrame()
		s.emitNext()
	})
}

// Stop halts streaming and cancels queued packet transmissions.
func (s *Source) Stop() {
	s.stopped = true
	s.pace.Stop()
}

// planFrame sizes the next video frame with the controller's current rate:
// x_i = r(k) · frame interval, split into priority layers by the γ ladder
// (paper §4.2).
// The frame is a data unit, not a time gate — the source streams packets
// continuously and starts the next frame as soon as the current one is
// fully transmitted, exactly like a streaming server whose rate-scaling
// module picks x_i at each frame boundary. At a steady rate a frame takes
// exactly one frame interval on the wire.
func (s *Source) planFrame() {
	budget := s.cfg.Scaler.Budget(s.frame, s.ctrl.Rate(), s.cfg.FrameInterval)
	gamma := 0.0
	if s.cfg.Mode == ModePELS {
		gamma = s.gamma.Value()
	}
	s.packetizer.PlanLadder(&s.plan, s.frame, budget, gamma, s.cfg.RedShare)
	s.nextIdx = 0
	s.frame++
}

// emitNext sends the next packet of the stream and schedules the following
// one at the spacing implied by the current sending rate, so rate changes
// take effect within one packet time (a slower actuator would turn the
// feedback loop into a limit cycle).
func (s *Source) emitNext() {
	if s.stopped {
		return
	}
	if s.nextIdx >= s.plan.Total() {
		s.planFrame()
		if s.plan.Total() == 0 {
			// Degenerate spec (no packets to send); try again next frame
			// interval rather than spinning.
			s.pace.Reset(s.cfg.FrameInterval)
			return
		}
	}
	index := s.nextIdx
	s.nextIdx++
	color := s.plan.Color(index)
	if s.cfg.Mode == ModeBestEffort && color != packet.Green {
		color = packet.BestEffort
	}
	p := s.net.NewPacket(s.cfg.Flow, s.dst, s.cfg.Frame.PacketSize, color)
	p.Frame = s.plan.Frame
	p.Index = index
	s.pktsSent++
	s.bytesSent += int64(p.Size)
	s.host.Send(p)

	spacing := s.ctrl.Rate().TransmissionTime(s.cfg.Frame.PacketSize)
	s.pace.Reset(spacing)
}

// HandlePacket implements netsim.App: ACKs carry router feedback back to
// the source, driving both the rate controller and the γ loop.
func (s *Source) HandlePacket(p *packet.Packet) {
	if p.Color != packet.ACK || !p.AckedFeedback.Valid {
		return
	}
	if !s.ctrl.OnFeedback(p.AckedFeedback) {
		return // stale epoch: already reacted to this feedback
	}
	now := s.eng.Now()
	if s.cfg.RateSeries != nil {
		s.cfg.RateSeries.Add(now, s.ctrl.Rate().KbpsValue())
	}
	if s.cfg.Mode == ModePELS {
		var g float64
		if s.haveRouter && p.AckedFeedback.RouterID != s.lastRouter {
			// Feedback discontinuity (route change or gateway swap): the
			// loss history γ integrated belongs to a queue the flow no
			// longer traverses. Restart the red fraction instead of
			// stepping it with a cross-router delta.
			s.gamma.Reset()
			g = s.gamma.Value()
		} else {
			g = s.gamma.Update(p.AckedFeedback.Loss)
		}
		if s.gammaSeries != nil {
			s.gammaSeries.Add(now, g)
		}
	}
	s.lastRouter = p.AckedFeedback.RouterID
	s.haveRouter = true
}

// RecordGamma makes every γ update from now on — one per accepted feedback,
// PELS mode only — add a sample to series at simulation time; nil stops
// recording. Without it the source keeps no γ history.
func (s *Source) RecordGamma(series *obs.Series) { s.gammaSeries = series }

// Rate returns the controller's current sending rate.
func (s *Source) Rate() units.BitRate { return s.ctrl.Rate() }

// Gamma returns the current red fraction γ.
func (s *Source) Gamma() float64 { return s.gamma.Value() }

// Controller exposes the congestion controller for inspection.
func (s *Source) Controller() cc.Controller { return s.ctrl }

// PacketsSent returns the number of data packets emitted.
func (s *Source) PacketsSent() int64 { return s.pktsSent }

// BytesSent returns the number of data bytes emitted.
func (s *Source) BytesSent() int64 { return s.bytesSent }

// Flow returns the session's flow ID.
func (s *Source) Flow() int { return s.cfg.Flow }
