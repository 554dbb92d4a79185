// Package netsim provides the network substrate of the simulator: hosts,
// routers, unidirectional rate/delay links with pluggable queueing
// disciplines, and static shortest-path routing. It is the Go equivalent of
// the ns2 machinery the paper's evaluation ran on.
package netsim

import (
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/queue"
	"repro/internal/sim"
	"repro/internal/units"
)

// Receiver consumes packets delivered by a link.
type Receiver interface {
	Receive(p *packet.Packet)
}

// Link is a unidirectional link: packets are queued in the attached
// discipline, serialized at the link rate, and delivered to the destination
// after the propagation delay. The link transmits at most one packet at a
// time and is work-conserving.
type Link struct {
	Name string

	eng   *sim.Engine
	rate  units.BitRate
	delay time.Duration
	disc  queue.Discipline
	dst   Receiver
	busy  bool

	// pool, when non-nil, receives packets that terminate at this link
	// (queue drops, fault drops). Set by Network when pooling is enabled.
	pool *packet.Pool

	// Hot-path state: cur is the packet being serialized; inflight is a
	// FIFO (head at inflightHead) of packets in propagation. Deliveries are
	// scheduled at txEnd+delay with monotonically increasing (at, seq), so
	// pop order always matches push order. Together with the two method
	// values below this removes the per-packet closure allocations the
	// original implementation paid for every transmission.
	cur          *packet.Packet
	inflight     []*packet.Packet
	inflightHead int
	txEndFn      func()
	deliverFn    func()

	transmittedPkts  int64
	transmittedBytes int64

	obsTx         *obs.Counter
	obsTxBytes    *obs.Counter
	obsDrops      *obs.Counter
	obsFaultDrops *obs.Counter

	// Faults, if non-nil, applies a scheduled fault plan to every packet
	// offered to the link, after Proc (the router stamps before the wire
	// damages) and before queueing. Fault time is simulation time, so a
	// plan replays identically for a fixed seed.
	Faults *fault.Injector

	// Proc, if non-nil, processes every packet offered to this link
	// before it is enqueued (drops included — the PELS arrival counter S
	// counts offered traffic, paper eq. 11). This is the correct
	// attachment point for per-output-queue AQM like the PELS feedback:
	// a router-level processor would also see traffic that leaves through
	// other, uncongested ports.
	Proc Processor

	// OnDrop fires when the discipline rejected a packet; OnTransmit
	// fires when a packet starts transmission (after leaving the queue).
	// Hooks are used by experiments to record per-color delay and loss
	// series.
	OnDrop     func(p *packet.Packet)
	OnTransmit func(p *packet.Packet)
}

// NewLink creates a link feeding dst. The discipline owns buffering and
// drop policy; rate must be positive.
func NewLink(eng *sim.Engine, name string, rate units.BitRate, delay time.Duration, disc queue.Discipline, dst Receiver) *Link {
	if rate <= 0 {
		panic("netsim: link rate must be positive")
	}
	if disc == nil {
		disc = queue.NewDropTail(0, 0)
	}
	l := &Link{Name: name, eng: eng, rate: rate, delay: delay, disc: disc, dst: dst}
	l.txEndFn = l.txEnd
	l.deliverFn = l.deliver
	return l
}

// Send offers a packet to the link's queue and starts transmission if the
// link is idle.
func (l *Link) Send(p *packet.Packet) {
	if l.Proc != nil {
		l.Proc.Process(p)
	}
	if l.Faults != nil {
		d := l.Faults.Filter(l.eng.Now(), fault.Packet{Size: p.Size, Class: classify(p)})
		if d.Drop || d.Corrupt {
			// The simulator has no byte-level codec, so corruption is
			// modeled as its end-to-end outcome on the live stack: the
			// checksum rejects the packet at decode and it is lost.
			if l.obsFaultDrops != nil {
				l.obsFaultDrops.Inc()
			}
			if l.pool != nil {
				l.pool.Put(p)
			}
			return
		}
		if d.StripFeedback {
			p.Feedback.Valid = false
			p.AckedFeedback.Valid = false
		}
		if d.Duplicate {
			cp := *p
			l.admit(&cp)
		}
		if d.ExtraDelay > 0 {
			extra := d.ExtraDelay
			l.eng.ScheduleFunc(extra, func() { l.admit(p) })
			return
		}
	}
	l.admit(p)
}

// classify maps a simulated packet onto the traffic classes the fault
// injector distinguishes: ACKs carry feedback on the reverse path, PELS
// colors are stream data, TCP and best-effort cross traffic is other.
func classify(p *packet.Packet) fault.Class {
	switch {
	case p.Color == packet.ACK:
		return fault.ClassFeedback
	case p.Color.IsPELS():
		return fault.ClassData
	default:
		return fault.ClassOther
	}
}

// admit enqueues a packet that survived the fault filter.
func (l *Link) admit(p *packet.Packet) {
	p.Enqueued = l.eng.Now()
	if !l.disc.Enqueue(p) {
		if l.obsDrops != nil {
			l.obsDrops.Inc()
		}
		if l.OnDrop != nil {
			l.OnDrop(p)
		}
		if l.pool != nil {
			l.pool.Put(p)
		}
		return
	}
	if !l.busy {
		l.transmitNext()
	}
}

func (l *Link) transmitNext() {
	p := l.disc.Dequeue()
	if p == nil {
		l.busy = false
		return
	}
	l.busy = true
	p.Dequeued = l.eng.Now()
	if l.OnTransmit != nil {
		l.OnTransmit(p)
	}
	l.cur = p
	l.eng.ScheduleFunc(l.rate.TransmissionTime(p.Size), l.txEndFn)
}

// txEnd fires when the current packet's last bit leaves the interface: the
// packet moves to the propagation FIFO and the next queued packet (if any)
// starts serializing. The event order (delivery scheduled before the next
// tx end) matches the original closure implementation exactly, so same-seed
// runs are unchanged.
func (l *Link) txEnd() {
	p := l.cur
	l.cur = nil
	l.transmittedPkts++
	l.transmittedBytes += int64(p.Size)
	if l.obsTx != nil {
		l.obsTx.Inc()
		l.obsTxBytes.Add(int64(p.Size))
	}
	l.inflight = append(l.inflight, p)
	l.eng.ScheduleFunc(l.delay, l.deliverFn)
	l.transmitNext()
}

// deliver hands the oldest in-propagation packet to the destination.
func (l *Link) deliver() {
	p := l.inflight[l.inflightHead]
	l.inflight[l.inflightHead] = nil
	l.inflightHead++
	if l.inflightHead == len(l.inflight) {
		l.inflight = l.inflight[:0]
		l.inflightHead = 0
	} else if l.inflightHead >= 64 && 2*l.inflightHead >= len(l.inflight) {
		// Long-delay, high-rate links never fully drain; slide the live
		// tail down so the backing array stays bounded by the in-flight
		// count.
		n := copy(l.inflight, l.inflight[l.inflightHead:])
		for i := n; i < len(l.inflight); i++ {
			l.inflight[i] = nil
		}
		l.inflight = l.inflight[:n]
		l.inflightHead = 0
	}
	l.dst.Receive(p)
}

// Instrument registers the link's transmit and drop totals in reg as
// counters prefix+"tx_packets", prefix+"tx_bytes", prefix+"drops", and
// prefix+"fault_drops".
func (l *Link) Instrument(reg *obs.Registry, prefix string) {
	l.obsTx = reg.Counter(prefix + "tx_packets")
	l.obsTxBytes = reg.Counter(prefix + "tx_bytes")
	l.obsDrops = reg.Counter(prefix + "drops")
	l.obsFaultDrops = reg.Counter(prefix + "fault_drops")
}

// TransmittedPackets returns the number of packets fully serialized.
func (l *Link) TransmittedPackets() int64 { return l.transmittedPkts }

// Utilization returns the fraction of capacity used over elapsed time.
func (l *Link) Utilization(elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(l.transmittedBytes) * 8 / (float64(l.rate) * elapsed.Seconds())
}
