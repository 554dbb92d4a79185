package pels

import (
	"time"

	"repro/internal/fgs"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/sim"
)

// Sink is the receiving side of a streaming session: it reassembles frames
// with the FGS decoder and acknowledges every data packet, echoing the
// freshest router feedback label back to the source (paper §5.2).
type Sink struct {
	cfg  Config
	eng  *sim.Engine
	net  *netsim.Network
	host *netsim.Host

	decoder *fgs.Decoder

	pktsRecv  int64
	bytesRecv int64
	acksSent  int64

	// latestFB is the freshest feedback seen across all received packets,
	// preferring higher epochs from the same router (red packets can be
	// reordered behind yellow/green by priority queueing).
	latestFB packet.Feedback

	// OnPacket, if non-nil, observes every received data packet (used by
	// experiments for per-color delay accounting at the receiver).
	OnPacket func(at time.Duration, p *packet.Packet)
}

var _ netsim.App = (*Sink)(nil)

// NewSink builds a sink for the flow on host.
func NewSink(net *netsim.Network, host *netsim.Host, cfg Config) (*Sink, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	dec, err := fgs.NewDecoder(cfg.Frame)
	if err != nil {
		return nil, err
	}
	s := &Sink{cfg: cfg, eng: net.Engine(), net: net, host: host, decoder: dec}
	host.Attach(cfg.Flow, s)
	return s, nil
}

// HandlePacket implements netsim.App.
func (s *Sink) HandlePacket(p *packet.Packet) {
	if p.Color == packet.ACK {
		return
	}
	s.pktsRecv++
	s.bytesRecv += int64(p.Size)
	s.decoder.Receive(p.Frame, p.Index)
	if s.OnPacket != nil {
		s.OnPacket(s.eng.Now(), p)
	}
	s.updateFeedback(p.Feedback)
	s.sendAck(p.Src)
}

// updateFeedback keeps the freshest label: a higher epoch from the same
// router wins; a different router's label wins if its loss is larger
// (max-min feedback, paper eq. 8) or the current label is unset.
func (s *Sink) updateFeedback(fb packet.Feedback) {
	if !fb.Valid {
		return
	}
	cur := s.latestFB
	switch {
	case !cur.Valid:
		s.latestFB = fb
	case fb.RouterID == cur.RouterID:
		if fb.Epoch > cur.Epoch {
			s.latestFB = fb
		}
	case fb.Loss > cur.Loss:
		s.latestFB = fb
	}
}

// ackSize is the size in bytes of the ACK the sink sends for every data
// packet.
const ackSize = 40

func (s *Sink) sendAck(to int) {
	ack := s.net.NewPacket(s.cfg.Flow, to, ackSize, packet.ACK)
	ack.AckedFeedback = s.latestFB
	s.acksSent++
	s.host.Send(ack)
}

// Decoder exposes the FGS decoder for end-of-run analysis.
func (s *Sink) Decoder() *fgs.Decoder { return s.decoder }

// Frames returns per-frame decode results in frame order.
func (s *Sink) Frames() []fgs.FrameResult { return s.decoder.Frames() }

// Stats aggregates decode statistics over all frames seen.
func (s *Sink) Stats() fgs.StreamStats { return fgs.Aggregate(s.Frames()) }

// PacketsReceived returns the number of data packets received.
func (s *Sink) PacketsReceived() int64 { return s.pktsRecv }

// BytesReceived returns the number of data bytes received.
func (s *Sink) BytesReceived() int64 { return s.bytesRecv }

// AcksSent returns the number of acknowledgments generated.
func (s *Sink) AcksSent() int64 { return s.acksSent }

// LatestFeedback returns the freshest feedback label seen so far.
func (s *Sink) LatestFeedback() packet.Feedback { return s.latestFB }
