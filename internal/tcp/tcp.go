// Package tcp implements a minimal TCP Reno sender/receiver pair over the
// simulator, used as the Internet-queue cross traffic in the paper's
// bar-bell topology (Fig. 6). The paper allocates 50% of the bottleneck to
// TCP via WRR and explicitly ignores TCP's own performance; this
// implementation therefore aims for realistic aggressiveness (slow start,
// congestion avoidance, fast retransmit, RTO with exponential backoff)
// rather than full RFC fidelity.
package tcp

import (
	"time"

	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/sim"
)

// Config parameterizes a greedy (FTP-like) TCP Reno sender.
type Config struct {
	// Flow identifies the connection; data and ACK packets share it.
	Flow int
	// MSS is the segment payload size in bytes.
	MSS int
	// InitialCwnd is the initial congestion window in segments.
	InitialCwnd float64
	// InitialSsthresh is the initial slow-start threshold in segments.
	InitialSsthresh float64
	// MinRTO floors the retransmission timeout.
	MinRTO time.Duration
	// MaxCwnd caps the window in segments (0 = uncapped).
	MaxCwnd float64
	// AckSize is the ACK packet size in bytes.
	AckSize int
}

// DefaultConfig returns a conventional Reno configuration.
func DefaultConfig(flow int) Config {
	return Config{
		Flow:            flow,
		MSS:             1000,
		InitialCwnd:     2,
		InitialSsthresh: 64,
		MinRTO:          200 * time.Millisecond,
		AckSize:         40,
	}
}

// Sender is a greedy TCP Reno source. It implements netsim.App to receive
// ACKs.
type Sender struct {
	cfg  Config
	eng  *sim.Engine
	net  *netsim.Network
	host *netsim.Host
	dst  int

	cwnd     float64 // segments
	ssthresh float64 // segments
	sndUna   int64   // lowest unacknowledged byte
	sndNxt   int64   // next byte to send
	dupAcks  int

	// RTT estimation (RFC 6298 smoothing) using one timed segment at a
	// time (Karn's algorithm: retransmitted segments are never timed).
	srtt       time.Duration
	rttvar     time.Duration
	rto        time.Duration
	timedSeq   int64
	timedAt    time.Duration
	timing     bool
	rtoBackoff int

	rtoTimer *sim.Timer

	segmentsSent    int64
	retransmissions int64
	bytesAcked      int64
	started         bool
}

var _ netsim.App = (*Sender)(nil)

// NewSender creates a Reno sender on host targeting the receiver host dst.
func NewSender(net *netsim.Network, host *netsim.Host, dst int, cfg Config) *Sender {
	if cfg.MSS <= 0 {
		cfg.MSS = 1000
	}
	if cfg.InitialCwnd <= 0 {
		cfg.InitialCwnd = 2
	}
	if cfg.InitialSsthresh <= 0 {
		cfg.InitialSsthresh = 64
	}
	if cfg.MinRTO <= 0 {
		cfg.MinRTO = 200 * time.Millisecond
	}
	if cfg.AckSize <= 0 {
		cfg.AckSize = 40
	}
	s := &Sender{
		cfg:      cfg,
		eng:      net.Engine(),
		net:      net,
		host:     host,
		dst:      dst,
		cwnd:     cfg.InitialCwnd,
		ssthresh: cfg.InitialSsthresh,
		rto:      time.Second,
	}
	s.rtoTimer = s.eng.NewTimer(s.onRTO)
	host.Attach(cfg.Flow, s)
	return s
}

// Start begins transmission at the given simulation time.
func (s *Sender) Start(at time.Duration) {
	s.eng.At(at, func() {
		s.started = true
		s.trySend()
	})
}

// HandlePacket implements netsim.App (processes ACKs).
func (s *Sender) HandlePacket(p *packet.Packet) {
	if p.Color != packet.ACK {
		return
	}
	ack := p.TCPAck
	switch {
	case ack > s.sndUna:
		s.onNewAck(ack)
	case ack == s.sndUna:
		s.onDupAck()
	}
	s.trySend()
}

func (s *Sender) onNewAck(ack int64) {
	acked := ack - s.sndUna
	s.bytesAcked += acked
	s.sndUna = ack
	s.dupAcks = 0
	s.rtoBackoff = 0

	if s.timing && ack > s.timedSeq {
		s.sampleRTT(s.eng.Now() - s.timedAt)
		s.timing = false
	}

	segs := float64(acked) / float64(s.cfg.MSS)
	if s.cwnd < s.ssthresh {
		s.cwnd += segs // slow start: +1 per acked segment
	} else {
		s.cwnd += segs / s.cwnd // congestion avoidance: +1 per RTT
	}
	if s.cfg.MaxCwnd > 0 && s.cwnd > s.cfg.MaxCwnd {
		s.cwnd = s.cfg.MaxCwnd
	}
	s.resetRTO()
}

func (s *Sender) onDupAck() {
	s.dupAcks++
	if s.dupAcks != 3 {
		return
	}
	// Fast retransmit with simplified recovery (NewReno-lite): halve the
	// window and resend the missing segment.
	s.ssthresh = maxf(s.cwnd/2, 2)
	s.cwnd = s.ssthresh
	s.retransmit()
}

func (s *Sender) onRTO() {
	if s.sndUna >= s.sndNxt {
		return // nothing outstanding
	}
	s.ssthresh = maxf(s.cwnd/2, 2)
	s.cwnd = 1
	s.dupAcks = 0
	s.rtoBackoff++
	s.timing = false
	s.retransmit()
}

func (s *Sender) retransmit() {
	s.retransmissions++
	s.sendSegment(s.sndUna, true)
	s.resetRTO()
}

func (s *Sender) trySend() {
	if !s.started {
		return
	}
	window := int64(s.cwnd * float64(s.cfg.MSS))
	for s.sndNxt < s.sndUna+window {
		s.sendSegment(s.sndNxt, false)
		s.sndNxt += int64(s.cfg.MSS)
	}
	if !s.rtoTimer.Armed() && s.sndNxt > s.sndUna {
		s.resetRTO()
	}
}

func (s *Sender) sendSegment(seq int64, isRetransmit bool) {
	p := s.net.NewPacket(s.cfg.Flow, s.dst, s.cfg.MSS, packet.TCP)
	p.Seq = seq
	s.segmentsSent++
	if !s.timing && !isRetransmit {
		s.timing = true
		s.timedSeq = seq
		s.timedAt = s.eng.Now()
	}
	s.host.Send(p)
}

func (s *Sender) sampleRTT(rtt time.Duration) {
	if s.srtt == 0 {
		s.srtt = rtt
		s.rttvar = rtt / 2
	} else {
		diff := s.srtt - rtt
		if diff < 0 {
			diff = -diff
		}
		s.rttvar = (3*s.rttvar + diff) / 4
		s.srtt = (7*s.srtt + rtt) / 8
	}
	s.rto = s.srtt + 4*s.rttvar
	if s.rto < s.cfg.MinRTO {
		s.rto = s.cfg.MinRTO
	}
}

func (s *Sender) resetRTO() {
	if s.sndUna >= s.sndNxt {
		s.rtoTimer.Stop()
		return
	}
	s.rtoTimer.Reset(s.rto << uint(minInt(s.rtoBackoff, 6)))
}

// Cwnd returns the current congestion window in segments.
func (s *Sender) Cwnd() float64 { return s.cwnd }

// BytesAcked returns the number of bytes delivered and acknowledged.
func (s *Sender) BytesAcked() int64 { return s.bytesAcked }

// SegmentsSent returns the number of segments transmitted (including
// retransmissions).
func (s *Sender) SegmentsSent() int64 { return s.segmentsSent }

// Retransmissions returns the number of retransmitted segments.
func (s *Sender) Retransmissions() int64 { return s.retransmissions }

// SRTT returns the smoothed RTT estimate.
func (s *Sender) SRTT() time.Duration { return s.srtt }

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
