package pels

import (
	"time"

	"repro/internal/fgs"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Sink is the receiving side of a streaming session in the simulator: the
// netsim driver of the receiver core the live swarm runs (wire.RecvCore),
// which counts per-color loss from sequence gaps and keeps the latest fresh
// router label. The sink reassembles frames with the FGS decoder and ACKs
// every data packet with that label, as the paper's receiver does (§5.2);
// the live receiver echoes only fresh labels. The repeated labels are what
// MKC's epoch dedup drops, so the no-dedup ablation needs this cadence.
type Sink struct {
	cfg  Config
	eng  *sim.Engine
	net  *netsim.Network
	host *netsim.Host

	decoder *fgs.Decoder
	recv    wire.RecvCore

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
	s := &Sink{cfg: cfg, eng: net.Engine(), net: net, host: host, decoder: dec, recv: wire.NewRecvCore(uint32(cfg.Flow))}
	host.Attach(cfg.Flow, s)
	return s, nil
}

// ackSize is the size in bytes of the ACK the sink sends for every data
// packet.
const ackSize = 40

// HandlePacket implements netsim.App: the core applies the datagram the
// packet carries, and the sink ACKs it.
func (s *Sink) HandlePacket(p *packet.Packet) {
	if p.Color == packet.ACK {
		return
	}
	s.decoder.Receive(p.Frame, p.Index)
	if s.OnPacket != nil {
		s.OnPacket(s.eng.Now(), p)
	}
	s.recv.OnData(wire.Header{Type: wire.TypeData, Color: p.Color, Flow: uint32(p.FlowID), Frame: uint32(p.Frame),
		Index: uint16(p.Index), Seq: uint64(p.Seq), Feedback: p.Feedback}, p.Size, epoch.Add(s.eng.Now()))
	ack := s.net.NewPacket(s.cfg.Flow, p.Src, ackSize, packet.ACK)
	ack.AckedFeedback = s.recv.Label()
	s.host.Send(ack)
}

// Frames returns per-frame decode results in frame order.
func (s *Sink) Frames() []fgs.FrameResult { return s.decoder.Frames() }

// Stats aggregates decode statistics over all frames seen.
func (s *Sink) Stats() fgs.StreamStats { return fgs.Aggregate(s.Frames()) }

// Received returns the receiver core's stats: per-color counts and loss,
// sequence regressions, fresh labels and the latest one. FeedbackSent
// counts the core's echoes, one per fresh label; the sink sent one ACK per
// datagram.
func (s *Sink) Received() wire.ReceiverStats { return s.recv.Stats() }

// BytesReceived returns the number of data bytes received.
func (s *Sink) BytesReceived() int64 { return int64(s.recv.Bytes()) }
