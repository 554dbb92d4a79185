package wire

import (
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

// Bucket is a wall-clock token bucket that spaces datagrams at a target
// bit rate. Time is passed in explicitly (callers use time.Now()), which
// keeps the arithmetic deterministic under test: burst bounds, mid-stream
// rate changes, and clock jumps are all pure functions of the supplied
// instants.
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
	rate   units.BitRate // clamped, > 0
	burst  float64       // bucket capacity, bytes
	tokens float64       // current credit, bytes; may go negative (debt)
	last   time.Time
	set    bool // last is meaningful
}

// Init sets the bucket to the given rate with room for burstBytes, full: a
// fresh bucket may burst immediately. Non-positive burst gets a one-MTU
// bucket, the minimum that keeps a full-size datagram from waiting forever.
func (b *Bucket) Init(rate units.BitRate, burstBytes int) {
	if burstBytes <= 0 {
		burstBytes = MaxDatagram
	}
	*b = Bucket{burst: float64(burstBytes), tokens: float64(burstBytes)}
	b.setRate(rate)
}

// SetRate changes the pacing rate at the given instant. Credit already
// accrued at the old rate is settled first, so a rate change mid-stream
// never retroactively re-prices elapsed time. Rates <= 0 clamp to
// MinPacerRate.
//
//pelsvet:noalloc
func (b *Bucket) SetRate(rate units.BitRate, now time.Time) {
	b.settle(now)
	b.setRate(rate)
}

func (b *Bucket) setRate(rate units.BitRate) {
	if rate < MinPacerRate {
		rate = MinPacerRate
	}
	b.rate = rate
}

// Rate returns the current (clamped) pacing rate.
func (b *Bucket) Rate() units.BitRate { return b.rate }

// Burst returns the bucket capacity in bytes.
func (b *Bucket) Burst() int { return int(b.burst) }

// Reserve commits to sending n bytes at the given instant and returns how
// long the caller must wait before putting them on the wire (0 = send
// immediately). The bytes are charged unconditionally, so calls must be
// followed by a send; the returned wait is exactly the time for the
// bucket debt to refill at the current rate.
//
//pelsvet:noalloc
func (b *Bucket) Reserve(n int, now time.Time) time.Duration {
	if n <= 0 {
		return 0
	}
	b.settle(now)
	b.tokens -= float64(n)
	if b.tokens >= 0 {
		return 0
	}
	return time.Duration(-b.tokens * 8 / float64(b.rate) * float64(time.Second))
}

// settle accrues credit for the time elapsed since the last settlement.
// A clock that jumps backward contributes nothing (elapsed clamps to 0);
// a clock that jumps far forward is bounded by the burst cap.
func (b *Bucket) settle(now time.Time) {
	if !b.set {
		b.last = now
		b.set = true
		return
	}
	elapsed := now.Sub(b.last)
	if elapsed < 0 {
		elapsed = 0
	}
	b.last = now
	b.tokens += elapsed.Seconds() * float64(b.rate) / 8
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
}

// Pacer is a Bucket behind its own mutex, for callers with no lock of
// their own to keep it under. Its remaining caller is the end-to-end
// benchmark (bench/), which times it; the live end host, session.Session,
// keeps a Bucket under its own lock.
type Pacer struct {
	mu sync.Mutex
	b  Bucket
}

// NewPacer builds a pacer at the given rate with a bucket of burstBytes
// (see Bucket.Init).
func NewPacer(rate units.BitRate, burstBytes int) *Pacer {
	p := &Pacer{}
	p.b.Init(rate, burstBytes)
	return p
}

// SetRate is Bucket.SetRate under the pacer's lock.
func (p *Pacer) SetRate(rate units.BitRate, now time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.b.SetRate(rate, now)
}

// Rate returns the current (clamped) pacing rate.
func (p *Pacer) Rate() units.BitRate {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.b.Rate()
}

// Burst returns the bucket capacity in bytes.
func (p *Pacer) Burst() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.b.Burst()
}

// Reserve is Bucket.Reserve under the pacer's lock.
//
//pelsvet:noalloc
func (p *Pacer) Reserve(n int, now time.Time) time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.b.Reserve(n, now)
}
