package pels

import (
	"net"
	"time"

	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/session"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/wire"
)

// epoch is the wall-clock instant simulation time 0 maps to on the
// session's clock. Any fixed instant would do; this one stamps datagrams
// with the simulation time in nanoseconds.
var epoch = time.Unix(0, 0)

// Source is the sending side of a streaming session in the simulator: the
// netsim driver of a session.Session (paper Fig. 4 right). A sim.Timer
// pumps the session at each deadline it returns, both on the session's
// timeline (simulation time since the source was built); the session plans
// frames, colors, paces and encodes each packet as a wire datagram, which
// the source reads into the netsim packet it sends. The read skips the
// checksum: the datagram is the one the session sealed in the same call.
// The sink's ACKs carry router feedback back to the session.
type Source struct {
	cfg  Config
	eng  *sim.Engine
	net  *netsim.Network
	host *netsim.Host
	dst  int

	sess        *session.Session
	born        time.Duration // simulation time the session's timeline starts at
	buf         []byte        // the datagram the session encodes into
	gammaSeries *obs.Series   // nil until RecordGamma
	pace        *sim.Timer    // fires pump at the session's next deadline
	started     bool
	stopped     bool
}

var _ netsim.App = (*Source)(nil)

// NewSource builds a source on host streaming to the node dst. The source
// registers itself for the flow's ACKs on host.
func NewSource(net *netsim.Network, host *netsim.Host, dst int, cfg Config) (*Source, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	eng := net.Engine()
	s := &Source{cfg: cfg, eng: eng, net: net, host: host, dst: dst, born: eng.Now(),
		buf: make([]byte, 0, cfg.Frame.PacketSize)}
	sess, err := session.NewSession(session.Key{Flow: uint32(cfg.Flow)}, nil, (*netOut)(s), cfg.Config, s.now())
	if err != nil {
		return nil, err
	}
	s.sess = sess
	s.pace = eng.NewTimer(s.pump)
	host.Attach(cfg.Flow, s)
	return s, nil
}

// now is the session's clock reading at the current simulation time.
func (s *Source) now() time.Time { return epoch.Add(s.eng.Now()) }

// Start begins streaming at the given simulation time (first frame sent
// immediately at that instant).
func (s *Source) Start(at time.Duration) {
	s.eng.AtFunc(at, func() {
		if s.stopped || s.started {
			return
		}
		s.started = true
		s.pump()
	})
}

// Stop halts streaming and cancels queued packet transmissions.
func (s *Source) Stop() {
	s.stopped = true
	s.pace.Stop()
}

// pump runs the session up to the current simulation time and arms the
// timer at the deadline it returns, both on the session's timeline.
func (s *Source) pump() {
	if s.stopped {
		return
	}
	at := s.eng.Now() - s.born
	next, done := s.sess.Pump(at, s.buf)
	if !done {
		s.pace.Reset(next - at)
	}
}

// netOut is the session's transport in the simulator: every datagram the
// session writes becomes one netsim packet carrying what the wire carries.
type netOut Source

// WriteTo implements wire.PacketWriter: the packet's size is the
// datagram's, and its color, frame, index and sequence are the header's,
// read with wire.PeekData.
func (o *netOut) WriteTo(b []byte, _ net.Addr) (int, error) {
	color, frame, index, seq, ok := wire.PeekData(b)
	if !ok {
		return 0, wire.ErrType // unreachable: the session writes only data datagrams
	}
	s := (*Source)(o)
	p := s.net.NewPacket(s.cfg.Flow, s.dst, len(b), color)
	p.Frame = int(frame)
	p.Index = int(index)
	p.Seq = int64(seq)
	s.host.Send(p)
	return len(b), nil
}

// HandlePacket implements netsim.App: ACKs carry router feedback back to
// the session, driving both the rate controller and the γ loop.
func (s *Source) HandlePacket(p *packet.Packet) {
	if p.Color != packet.ACK || !s.sess.HandleFeedback(p.AckedFeedback, s.now()) {
		return // not an ACK, or an invalid or stale label
	}
	now := s.eng.Now()
	if s.cfg.RateSeries != nil {
		s.cfg.RateSeries.Add(now, s.sess.Rate().KbpsValue())
	}
	if !s.cfg.BestEffort && s.gammaSeries != nil {
		s.gammaSeries.Add(now, s.sess.Gamma())
	}
}

// RecordGamma makes every γ update from now on — one per accepted feedback,
// PELS mode only — add a sample to series at simulation time; nil stops
// recording. Without it the source keeps no γ history.
func (s *Source) RecordGamma(series *obs.Series) { s.gammaSeries = series }

// Rate returns the controller's current sending rate.
func (s *Source) Rate() units.BitRate { return s.sess.Rate() }

// Gamma returns the current red fraction γ.
func (s *Source) Gamma() float64 { return s.sess.Gamma() }

// BytesSent returns the number of data bytes emitted.
func (s *Source) BytesSent() int64 { return int64(s.sess.Stats().Bytes) }
