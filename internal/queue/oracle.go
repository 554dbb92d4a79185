package queue

import (
	"math/rand"

	"repro/internal/packet"
)

// OracleFIFO is the best-effort baseline queue of §6.5: a bounded FIFO that
// drops each arriving non-green packet with a probability supplied by the
// loss oracle (typically the router's current feedback loss), producing the
// independent Bernoulli loss pattern analyzed in §3.1. Green (base-layer)
// packets are never early-dropped — the paper's baseline "magically"
// protects the base layer to keep best-effort streaming viable at all.
// The oracle's loss target is measured over ALL video arrivals (the router
// computes p = (R−C)/R with R including the protected base layer), but only
// non-green packets may be dropped. The queue therefore scales the per-
// packet drop probability by the inverse of the droppable traffic share, so
// that realized drops match the target and no standing queue builds up
// (which would otherwise add feedback delay and destabilize the congestion
// control loop).
type OracleFIFO struct {
	Counters

	limitPkts int
	loss      func() float64
	rng       *rand.Rand
	q         fifo

	// greenShare is an EWMA of the byte fraction of protected (green)
	// arrivals.
	greenShare float64
}

var _ Discipline = (*OracleFIFO)(nil)

// NewOracleFIFO builds the oracle queue. loss is sampled per arrival and
// clamped to [0, 1]; limitPkts bounds the buffer (0 = unlimited).
func NewOracleFIFO(limitPkts int, loss func() float64, rng *rand.Rand) *OracleFIFO {
	if loss == nil {
		loss = func() float64 { return 0 }
	}
	return &OracleFIFO{limitPkts: limitPkts, loss: loss, rng: rng}
}

// ewmaWeight controls how quickly the green-share estimate adapts; at one
// packet per update, 1/2000 averages over roughly a second of paper-scale
// traffic.
const ewmaWeight = 1.0 / 2000

// Enqueue implements Discipline.
func (o *OracleFIFO) Enqueue(p *packet.Packet) bool {
	o.RecordArrival(p)
	isGreen := p.Color == packet.Green
	g := 0.0
	if isGreen {
		g = 1
	}
	o.greenShare += ewmaWeight * (g - o.greenShare)
	if o.limitPkts > 0 && o.q.len() >= o.limitPkts {
		o.RecordDrop(p)
		return false
	}
	if !isGreen {
		pr := o.loss()
		if share := 1 - o.greenShare; share > 0.05 {
			pr /= share
		}
		if pr > 1 {
			pr = 1
		}
		if pr > 0 && o.rng.Float64() < pr {
			o.RecordDrop(p)
			return false
		}
	}
	o.q.push(p)
	return true
}

// GreenShare returns the current estimate of the protected traffic share.
func (o *OracleFIFO) GreenShare() float64 { return o.greenShare }

// Dequeue implements Discipline.
func (o *OracleFIFO) Dequeue() *packet.Packet {
	p := o.q.pop()
	if p != nil {
		o.Dequeued++
	}
	return p
}

// Len implements Discipline.
func (o *OracleFIFO) Len() int { return o.q.len() }

// Bytes implements Discipline.
func (o *OracleFIFO) Bytes() int { return o.q.bytes }

// BernoulliDropper is an oracle discipline that drops each arriving packet
// independently with a fixed probability, matching the Bernoulli loss model
// of §3.1 exactly. Green packets are exempt when ProtectGreen is set. It
// stands in for a lossy hop wherever the loss process, not queue dynamics,
// is under study.
type BernoulliDropper struct {
	Counters

	P            float64
	ProtectGreen bool

	rng *rand.Rand
	q   fifo
}

var _ Discipline = (*BernoulliDropper)(nil)

// NewBernoulliDropper returns an oracle queue dropping with probability p.
func NewBernoulliDropper(p float64, protectGreen bool, rng *rand.Rand) *BernoulliDropper {
	return &BernoulliDropper{P: p, ProtectGreen: protectGreen, rng: rng}
}

// Enqueue implements Discipline.
func (b *BernoulliDropper) Enqueue(p *packet.Packet) bool {
	b.RecordArrival(p)
	if !(b.ProtectGreen && p.Color == packet.Green) && b.rng.Float64() < b.P {
		b.RecordDrop(p)
		return false
	}
	b.q.push(p)
	return true
}

// Dequeue implements Discipline.
func (b *BernoulliDropper) Dequeue() *packet.Packet {
	p := b.q.pop()
	if p != nil {
		b.Dequeued++
	}
	return p
}

// Len implements Discipline.
func (b *BernoulliDropper) Len() int { return b.q.len() }

// Bytes implements Discipline.
func (b *BernoulliDropper) Bytes() int { return b.q.bytes }
