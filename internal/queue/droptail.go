package queue

import (
	"repro/internal/packet"
)

// DropTail is a FIFO queue bounded by a packet count and/or byte count that
// drops arriving packets when full. A limit of 0 means unlimited in that
// dimension. It models the plain Internet queue of the PELS router
// (paper Fig. 4 left) and the per-color buffers inside the priority set.
type DropTail struct {
	Counters

	limitPkts  int
	limitBytes int
	q          fifo

	// OnDrop, if non-nil, is invoked for every dropped packet (used by
	// per-color loss accounting in experiments).
	OnDrop func(p *packet.Packet)
}

var _ Discipline = (*DropTail)(nil)

// NewDropTail returns a FIFO bounded to limitPkts packets and limitBytes
// bytes; either limit may be 0 for unlimited.
func NewDropTail(limitPkts, limitBytes int) *DropTail {
	return &DropTail{limitPkts: limitPkts, limitBytes: limitBytes}
}

// Enqueue implements Discipline.
func (d *DropTail) Enqueue(p *packet.Packet) bool {
	d.RecordArrival(p)
	if d.full(p) {
		d.drop(p)
		return false
	}
	d.q.push(p)
	return true
}

// Dequeue implements Discipline.
func (d *DropTail) Dequeue() *packet.Packet {
	p := d.q.pop()
	if p != nil {
		d.Dequeued++
	}
	return p
}

// Len implements Discipline.
func (d *DropTail) Len() int { return d.q.len() }

// Bytes implements Discipline.
func (d *DropTail) Bytes() int { return d.q.bytes }

func (d *DropTail) full(p *packet.Packet) bool {
	if d.limitPkts > 0 && d.q.len() >= d.limitPkts {
		return true
	}
	if d.limitBytes > 0 && d.q.bytes+p.Size > d.limitBytes {
		return true
	}
	return false
}

func (d *DropTail) drop(p *packet.Packet) {
	d.RecordDrop(p)
	if d.OnDrop != nil {
		d.OnDrop(p)
	}
}
