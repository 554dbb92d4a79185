package wire

import (
	"math"
	"math/bits"
	"sync"
	"time"

	"repro/internal/units"
)

// MinPacerRate floors the pacing rate. MKC already floors its own rate,
// but the pacer must survive arbitrary SetRate inputs (zero, negative, a
// controller mid-divergence) without dividing by zero or computing an
// unbounded wait, so rates at or below zero clamp here and the stream
// degrades to a trickle instead of stalling.
const MinPacerRate = units.Kbps

// Bucket is a token bucket that spaces datagrams at a target bit rate, in
// GCRA form (the "virtual scheduling" algorithm of ITU-T I.371): instead of
// a credit balance it keeps tat, the instant its debt clears, and charging
// n bytes moves tat on by their price at the current rate. Instants are
// time.Durations on the owner's timeline (session.Session counts from its
// wheel's origin; Pacer from its first instant), handed in explicitly,
// which keeps the arithmetic deterministic under test: burst bounds,
// mid-stream rate changes, and clock jumps are all pure functions of the
// supplied instants. Pacing a datagram is integer adds and compares; floats
// appear only where a rate becomes a per-byte price.
//
// The bucket holds at most Burst bytes of credit, so after an idle period
// the sender can emit at most one burst back to back; sustained
// throughput is bounded by the configured rate regardless of timer
// jitter, because credit accrues from real elapsed time (oversleeping a
// wait is repaid by the credit that accrued during it).
//
// A Bucket has no lock of its own: it is a value for an owner that already
// serializes access (session.Session keeps one under its own mutex). Pacer
// is the same bucket behind a mutex for everyone else. Init before use.
type Bucket struct {
	rate  units.BitRate // clamped, > 0
	burst int           // bucket capacity, bytes
	// The price of one byte at rate is costNs + costFrac·2^−64 ns: the
	// float64 8e9/rate, to 2^−64 ns. The fraction matters: the debt is
	// kept in time, and a rate change re-prices it, so a charge rounded to
	// the nanosecond at a fast rate would come back as bytes' worth of
	// error at a slow one.
	costNs   uint64
	costFrac uint64
	tau      time.Duration // price of the burst at rate: how far tat may run ahead for free
	tat      time.Duration // the instant the debt clears; never before last once charged
	frac     uint64        // tat's fraction of a nanosecond, in 2^−64 ns
	last     time.Duration // the latest instant seen
}

// Init sets the bucket to the given rate with room for burstBytes, full: a
// fresh bucket may burst immediately. Non-positive burst gets a one-MTU
// bucket, the minimum that keeps a full-size datagram from waiting forever.
func (b *Bucket) Init(rate units.BitRate, burstBytes int) {
	if burstBytes <= 0 {
		burstBytes = MaxDatagram
	}
	*b = Bucket{burst: burstBytes}
	b.setRate(rate)
}

// SetRate changes the pacing rate at the given instant. Credit already
// accrued at the old rate is settled first, so a rate change mid-stream
// never retroactively re-prices elapsed time: the debt outstanding at that
// instant keeps its size in bytes and is re-priced at the new rate. Rates
// <= 0 clamp to MinPacerRate.
//
//pelsvet:noalloc
func (b *Bucket) SetRate(rate units.BitRate, at time.Duration) {
	b.advance(at)
	old := b.rate
	b.setRate(rate)
	if b.tat == at && b.frac == 0 || b.rate == old {
		return // no debt, or no change of price
	}
	debt := (float64(b.tat-at) + float64(b.frac)*0x1p-64) * float64(old) / float64(b.rate)
	whole := math.Floor(debt)
	b.tat = at + time.Duration(whole)
	b.frac = uint64((debt - whole) * 0x1p64)
}

// setRate clamps rate and prices a byte and the burst at it.
func (b *Bucket) setRate(rate units.BitRate) {
	if !(rate >= MinPacerRate) {
		rate = MinPacerRate
	}
	b.rate = rate
	// At MinPacerRate a byte costs 8 ms, so the whole part fits easily.
	c := 8 * float64(time.Second) / float64(rate)
	whole := math.Floor(c)
	b.costNs, b.costFrac = uint64(whole), uint64((c-whole)*0x1p64)
	b.tau, _ = b.price(b.burst)
}

// price is what n bytes cost at the current rate: whole nanoseconds and
// the fraction left over, in 2^−64 ns.
func (b *Bucket) price(n int) (time.Duration, uint64) {
	hi, lo := bits.Mul64(uint64(n), b.costFrac)
	return time.Duration(uint64(n)*b.costNs + hi), lo
}

// Reserve commits to sending n bytes at the given instant and returns how
// long the caller must wait before putting them on the wire (0 = send
// immediately). The bytes are charged unconditionally, so calls must be
// followed by a send; the returned wait is exactly the time for the
// bucket debt to refill at the current rate.
//
//pelsvet:noalloc
func (b *Bucket) Reserve(n int, at time.Duration) time.Duration {
	if n <= 0 {
		return 0
	}
	b.advance(at)
	ns, frac := b.price(n)
	var carry uint64
	b.frac, carry = bits.Add64(b.frac, frac, 0)
	b.tat += ns + time.Duration(carry)
	if wait := b.tat - at - b.tau; wait > 0 {
		return wait
	}
	return 0
}

// advance settles the bucket at instant at. A clock that jumps backward
// contributes nothing: the debt outstanding at the last instant re-anchors
// at at. A clock that jumps far forward is bounded by the burst cap,
// because tat never trails the present.
func (b *Bucket) advance(at time.Duration) {
	switch {
	case at >= b.last:
		if b.tat < at {
			b.tat, b.frac = at, 0
		}
	case b.tat >= b.last:
		b.tat = at + (b.tat - b.last)
	default:
		b.tat, b.frac = at, 0
	}
	b.last = at
}

// Pacer is a Bucket behind its own mutex, on wall-clock instants, for
// callers with no lock or timeline of their own. Its timeline starts at
// the first instant it is handed. Its remaining caller is the end-to-end
// benchmark (bench/), which times it; the live end host, session.Session,
// keeps a Bucket under its own lock.
type Pacer struct {
	mu     sync.Mutex
	b      Bucket
	origin time.Time // the first instant handed in; zero until then
	set    bool      // origin is meaningful
}

// NewPacer builds a pacer at the given rate with a bucket of burstBytes
// (see Bucket.Init).
func NewPacer(rate units.BitRate, burstBytes int) *Pacer {
	p := &Pacer{}
	p.b.Init(rate, burstBytes)
	return p
}

// Reserve is Bucket.Reserve under the pacer's lock.
//
//pelsvet:noalloc
func (p *Pacer) Reserve(n int, now time.Time) time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.b.Reserve(n, p.sinceLocked(now))
}

// sinceLocked places now on the pacer's timeline, anchoring it at the first
// instant.
func (p *Pacer) sinceLocked(now time.Time) time.Duration {
	if !p.set {
		p.origin, p.set = now, true
	}
	return now.Sub(p.origin)
}
