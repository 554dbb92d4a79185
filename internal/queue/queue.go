// Package queue implements the queueing disciplines used by PELS routers
// and the best-effort baseline: drop-tail FIFO, the oracle queue that drops
// uniformly at random (OracleFIFO), a strict-priority set of N PELS layer
// queues (the paper's three colors by default), and weighted round-robin
// scheduling between the PELS aggregate and the Internet queue (paper
// §4.1, Fig. 4 left).
package queue

import (
	"repro/internal/obs"
	"repro/internal/packet"
)

// Discipline is a queueing discipline attached to an output link. Enqueue
// accepts or drops a packet; Dequeue picks the next packet to transmit.
type Discipline interface {
	// Enqueue offers p to the queue. It returns false if the packet was
	// dropped (buffer overflow or active drop decision).
	Enqueue(p *packet.Packet) bool
	// Dequeue removes and returns the next packet to transmit, or nil if
	// the discipline has nothing to send.
	Dequeue() *packet.Packet
	// Len returns the number of packets currently queued.
	Len() int
	// Bytes returns the number of bytes currently queued.
	Bytes() int
}

// Counters tracks arrival/drop statistics for a queue. Disciplines embed it
// so experiments can read loss rates per color (Fig. 7 right).
type Counters struct {
	Arrived      int64
	ArrivedBytes int64
	Dropped      int64
	DroppedBytes int64
	Dequeued     int64
}

// RecordArrival notes an arriving packet.
func (c *Counters) RecordArrival(p *packet.Packet) {
	c.Arrived++
	c.ArrivedBytes += int64(p.Size)
}

// RecordDrop notes a dropped packet.
func (c *Counters) RecordDrop(p *packet.Packet) {
	c.Dropped++
	c.DroppedBytes += int64(p.Size)
}

// LossRate returns the fraction of arrived packets that were dropped.
func (c *Counters) LossRate() float64 {
	if c.Arrived == 0 {
		return 0
	}
	return float64(c.Dropped) / float64(c.Arrived)
}

// reset zeroes all counters.
func (c *Counters) reset() { *c = Counters{} }

// Observe registers pull-style gauges for the counters in reg under
// prefix (prefix+"arrived", "arrived_bytes", "dropped", "dropped_bytes",
// "dequeued", "loss_rate"). Pull gauges read the live counters at
// snapshot time, so the hot enqueue/dequeue path stays untouched.
func (c *Counters) Observe(reg *obs.Registry, prefix string) {
	reg.GaugeFunc(prefix+"arrived", func() float64 { return float64(c.Arrived) })
	reg.GaugeFunc(prefix+"arrived_bytes", func() float64 { return float64(c.ArrivedBytes) })
	reg.GaugeFunc(prefix+"dropped", func() float64 { return float64(c.Dropped) })
	reg.GaugeFunc(prefix+"dropped_bytes", func() float64 { return float64(c.DroppedBytes) })
	reg.GaugeFunc(prefix+"dequeued", func() float64 { return float64(c.Dequeued) })
	reg.GaugeFunc(prefix+"loss_rate", c.LossRate)
}

// fifo is a slice-backed packet FIFO with amortized O(1) operations.
type fifo struct {
	pkts  []*packet.Packet
	head  int
	bytes int
}

func (f *fifo) push(p *packet.Packet) {
	f.pkts = append(f.pkts, p)
	f.bytes += p.Size
}

func (f *fifo) pop() *packet.Packet {
	if f.head >= len(f.pkts) {
		return nil
	}
	p := f.pkts[f.head]
	f.pkts[f.head] = nil
	f.head++
	f.bytes -= p.Size
	// Reclaim space once the consumed prefix dominates.
	if f.head > 64 && f.head*2 >= len(f.pkts) {
		n := copy(f.pkts, f.pkts[f.head:])
		for i := n; i < len(f.pkts); i++ {
			f.pkts[i] = nil
		}
		f.pkts = f.pkts[:n]
		f.head = 0
	}
	return p
}

func (f *fifo) len() int { return len(f.pkts) - f.head }

func (f *fifo) peek() *packet.Packet {
	if f.head >= len(f.pkts) {
		return nil
	}
	return f.pkts[f.head]
}
