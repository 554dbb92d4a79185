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

// Source is the sending side of a streaming session in the simulator: the
// netsim driver of an fgs.Sender, which plans each frame at the controller's
// rate and steps MKC and γ on router feedback (paper Fig. 4 right). The
// source paces the plan's packets continuously at the controller's rate and
// delivers the sink's ACKs to the sender.
type Source struct {
	cfg  Config
	eng  *sim.Engine
	net  *netsim.Network
	host *netsim.Host
	dst  int

	snd         fgs.Sender
	gammaSeries *obs.Series // nil until RecordGamma
	pace        *sim.Timer  // fires emitNext for the next paced packet
	started     bool
	stopped     bool

	pktsSent  int64
	bytesSent int64
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
	s := &Source{cfg: cfg, eng: net.Engine(), net: net, host: host, dst: dst}
	if err := s.snd.Init(cfg.sender(), ctrl); err != nil {
		return nil, err
	}
	s.pace = s.eng.NewTimer(s.emitNext)
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
		s.snd.PlanFrame(s.snd.Rate())
		s.emitNext()
	})
}

// Stop halts streaming and cancels queued packet transmissions.
func (s *Source) Stop() {
	s.stopped = true
	s.pace.Stop()
}

// emitNext sends the next packet of the stream and schedules the following
// one at the spacing implied by the current sending rate, so rate changes
// take effect within one packet time (a slower actuator would turn the
// feedback loop into a limit cycle). The frame is a data unit, not a time
// gate: the source plans the next frame, at the controller's current rate,
// as soon as the current one is fully transmitted, like a streaming server
// whose rate-scaling module picks x_i at each frame boundary. At a steady
// rate a frame takes exactly one frame interval on the wire.
func (s *Source) emitNext() {
	if s.stopped {
		return
	}
	if s.snd.Pending() == 0 && s.snd.PlanFrame(s.snd.Rate()) == 0 {
		// Degenerate spec (no packets to send); try again next frame
		// interval rather than spinning.
		s.pace.Reset(s.cfg.FrameInterval)
		return
	}
	frame, index, layer := s.snd.Take()
	color := packet.LayerColor(layer)
	if s.cfg.Mode == ModeBestEffort && layer > 0 {
		color = packet.BestEffort
	}
	p := s.net.NewPacket(s.cfg.Flow, s.dst, s.cfg.Frame.PacketSize, color)
	p.Frame = frame
	p.Index = index
	s.pktsSent++
	s.bytesSent += int64(p.Size)
	s.host.Send(p)

	spacing := s.snd.Rate().TransmissionTime(s.cfg.Frame.PacketSize)
	s.pace.Reset(spacing)
}

// HandlePacket implements netsim.App: ACKs carry router feedback back to
// the source's sender, driving both the rate controller and the γ loop.
func (s *Source) HandlePacket(p *packet.Packet) {
	if p.Color != packet.ACK {
		return
	}
	if ok, _ := s.snd.OnFeedback(p.AckedFeedback); !ok {
		return // invalid, or stale epoch: already reacted to this feedback
	}
	now := s.eng.Now()
	if s.cfg.RateSeries != nil {
		s.cfg.RateSeries.Add(now, s.snd.Rate().KbpsValue())
	}
	if s.cfg.Mode == ModePELS && s.gammaSeries != nil {
		s.gammaSeries.Add(now, s.snd.Gamma())
	}
}

// RecordGamma makes every γ update from now on — one per accepted feedback,
// PELS mode only — add a sample to series at simulation time; nil stops
// recording. Without it the source keeps no γ history.
func (s *Source) RecordGamma(series *obs.Series) { s.gammaSeries = series }

// Rate returns the controller's current sending rate.
func (s *Source) Rate() units.BitRate { return s.snd.Rate() }

// Gamma returns the current red fraction γ.
func (s *Source) Gamma() float64 { return s.snd.Gamma() }

// Controller exposes the congestion controller for inspection.
func (s *Source) Controller() cc.Controller { return s.snd.Controller() }

// PacketsSent returns the number of data packets emitted.
func (s *Source) PacketsSent() int64 { return s.pktsSent }

// BytesSent returns the number of data bytes emitted.
func (s *Source) BytesSent() int64 { return s.bytesSent }

// Flow returns the session's flow ID.
func (s *Source) Flow() int { return s.cfg.Flow }
