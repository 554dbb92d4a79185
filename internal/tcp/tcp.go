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

// Reno's constants: conventional values for the paper's cross traffic.
const (
	mss             = 1000 // segment payload, bytes
	initialCwnd     = 2    // segments
	initialSsthresh = 64   // segments
	minRTO          = 200 * time.Millisecond
	ackSize         = 40 // bytes
)

// Sender is a greedy TCP Reno source. It implements netsim.App to receive
// ACKs.
type Sender struct {
	flow int
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

	started bool
}

var _ netsim.App = (*Sender)(nil)

// NewSender creates a Reno sender for the flow on host, targeting the
// receiver host dst.
func NewSender(net *netsim.Network, host *netsim.Host, dst, flow int) *Sender {
	s := &Sender{
		flow:     flow,
		eng:      net.Engine(),
		net:      net,
		host:     host,
		dst:      dst,
		cwnd:     initialCwnd,
		ssthresh: initialSsthresh,
		rto:      time.Second,
	}
	s.rtoTimer = s.eng.NewTimer(s.onRTO)
	host.Attach(flow, s)
	return s
}

// Start begins transmission at the given simulation time.
func (s *Sender) Start(at time.Duration) {
	s.eng.AtFunc(at, func() {
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
	s.sndUna = ack
	s.dupAcks = 0
	s.rtoBackoff = 0

	if s.timing && ack > s.timedSeq {
		s.sampleRTT(s.eng.Now() - s.timedAt)
		s.timing = false
	}

	segs := float64(acked) / mss
	if s.cwnd < s.ssthresh {
		s.cwnd += segs // slow start: +1 per acked segment
	} else {
		s.cwnd += segs / s.cwnd // congestion avoidance: +1 per RTT
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
	s.sendSegment(s.sndUna, true)
	s.resetRTO()
}

func (s *Sender) trySend() {
	if !s.started {
		return
	}
	window := int64(s.cwnd * mss)
	for s.sndNxt < s.sndUna+window {
		s.sendSegment(s.sndNxt, false)
		s.sndNxt += mss
	}
	if !s.rtoTimer.Armed() && s.sndNxt > s.sndUna {
		s.resetRTO()
	}
}

func (s *Sender) sendSegment(seq int64, isRetransmit bool) {
	p := s.net.NewPacket(s.flow, s.dst, mss, packet.TCP)
	p.Seq = seq
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
	if s.rto < minRTO {
		s.rto = minRTO
	}
}

func (s *Sender) resetRTO() {
	if s.sndUna >= s.sndNxt {
		s.rtoTimer.Stop()
		return
	}
	s.rtoTimer.Reset(s.rto << uint(minInt(s.rtoBackoff, 6)))
}

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
