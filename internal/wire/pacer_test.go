package wire

import (
	"testing"
	"time"

	"repro/internal/units"
)

// t0 is an arbitrary fixed origin; the pacer only looks at differences.
var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// TestPacerSpacing: at rate r, sending packets back to back accumulates
// debt that is repaid at exactly size·8/r per packet.
func TestPacerSpacing(t *testing.T) {
	// 1 Mbit/s, 1000-byte packets → 8 ms per packet.
	p := NewPacer(units.Mbps, 1000)
	now := t0
	if wait := p.Reserve(1000, now); wait != 0 {
		t.Fatalf("fresh pacer should allow an immediate burst, got wait %v", wait)
	}
	// Bucket is now empty; the next two packets owe 8 ms and 16 ms.
	for i, want := range []time.Duration{8 * time.Millisecond, 16 * time.Millisecond} {
		wait := p.Reserve(1000, now)
		if diff := wait - want; diff < -time.Microsecond || diff > time.Microsecond {
			t.Fatalf("packet %d: wait %v, want %v", i, wait, want)
		}
	}
	// After waiting out the debt, the next packet owes one packet time.
	now = now.Add(16 * time.Millisecond)
	wait := p.Reserve(1000, now)
	if diff := wait - 8*time.Millisecond; diff < -time.Microsecond || diff > time.Microsecond {
		t.Fatalf("after drain: wait %v, want 8ms", wait)
	}
}

// TestPacerBurstBound: credit accrued during idle is capped at the
// bucket size, so a long pause buys at most one burst of back-to-back
// packets.
func TestPacerBurstBound(t *testing.T) {
	p := NewPacer(units.Mbps, 3000) // bucket: three 1000-byte packets
	now := t0
	p.Reserve(3000, now) // drain the initial bucket

	// A very long idle period…
	now = now.Add(time.Hour)
	sent := 0
	for p.Reserve(1000, now) == 0 {
		sent++
		if sent > 10 {
			break
		}
	}
	// …buys exactly the bucket: 3 free packets, then pacing resumes.
	if sent != 3 {
		t.Fatalf("burst of %d packets after idle, want 3", sent)
	}
}

// TestPacerRateChangeMidStream: SetRate settles credit at the old rate
// first, so elapsed time is never re-priced retroactively.
func TestPacerRateChangeMidStream(t *testing.T) {
	p := NewPacer(units.Mbps, 1000)
	now := t0
	p.Reserve(1000, now) // drain bucket

	// 4 ms at 1 Mbit/s accrues 500 bytes of credit. Then the rate rises
	// 10×: if SetRate re-priced the elapsed 4 ms at 10 Mbit/s it would
	// credit 5000 bytes and the next packet would be free.
	now = now.Add(4 * time.Millisecond)
	setPacerRate(p, 10*units.Mbps, now)
	wait := p.Reserve(1000, now)
	// 500 bytes owed at 10 Mbit/s → 0.4 ms.
	want := 400 * time.Microsecond
	if diff := wait - want; diff < -time.Microsecond || diff > time.Microsecond {
		t.Fatalf("wait %v, want %v", wait, want)
	}

	// Slowing down mid-debt stretches the remaining wait at the new rate.
	p2 := NewPacer(10*units.Mbps, 1000)
	p2.Reserve(1000, t0)
	p2.Reserve(1000, t0) // 1000 bytes of debt
	setPacerRate(p2, units.Mbps, t0)
	if wait := p2.Reserve(0, t0); wait != 0 {
		t.Fatalf("Reserve(0) must be free, got %v", wait)
	}
	wait = p2.Reserve(1000, t0) // total debt 2000 bytes at 1 Mbit/s → 16 ms
	if diff := wait - 16*time.Millisecond; diff < -time.Microsecond || diff > time.Microsecond {
		t.Fatalf("after slowdown: wait %v, want 16ms", wait)
	}
}

// TestPacerZeroAndNegativeRateClamp: hostile rates clamp to MinPacerRate
// instead of dividing by zero or stalling forever.
func TestPacerZeroAndNegativeRateClamp(t *testing.T) {
	for _, r := range []units.BitRate{0, -units.Mbps} {
		p := NewPacer(r, 100)
		if got := pacerRate(p); got != MinPacerRate {
			t.Errorf("NewPacer(%v): rate %v, want MinPacerRate", r, got)
		}
		p.Reserve(100, t0) // drain
		wait := p.Reserve(125, t0)
		// 125 bytes at 1 kbit/s = 1 s: finite, positive, bounded.
		if wait <= 0 || wait > 2*time.Second {
			t.Errorf("NewPacer(%v): wait %v not in (0, 2s]", r, wait)
		}
		setPacerRate(p, units.Mbps, t0)
		setPacerRate(p, -1, t0)
		if got := pacerRate(p); got != MinPacerRate {
			t.Errorf("SetRate(-1): rate %v, want MinPacerRate", got)
		}
	}
}

// TestPacerClockJumps: a clock stepping backward contributes no credit
// (and does not panic or go negative); a clock leaping forward is capped
// by the burst bound.
func TestPacerClockJumps(t *testing.T) {
	p := NewPacer(units.Mbps, 1000)
	now := t0
	p.Reserve(1000, now) // drain

	// Backward jump: no credit appears out of thin air.
	back := now.Add(-time.Hour)
	wait := p.Reserve(1000, back)
	if diff := wait - 8*time.Millisecond; diff < -time.Microsecond || diff > time.Microsecond {
		t.Fatalf("after backward jump: wait %v, want 8ms", wait)
	}
	// The pacer re-anchors at the jumped-back instant: 8 ms later the
	// debt is exactly repaid and the next packet owes one packet time
	// again — no stall, no free credit.
	wait = p.Reserve(1000, back.Add(8*time.Millisecond))
	if diff := wait - 8*time.Millisecond; diff < -time.Microsecond || diff > time.Microsecond {
		t.Fatalf("after resuming from jump: wait %v, want 8ms", wait)
	}

	// Forward leap: at most one burst of credit, not an hour's worth.
	far := back.Add(2 * time.Hour)
	free := 0
	for p.Reserve(500, far) == 0 {
		free++
		if free > 10 {
			break
		}
	}
	if free != 2 { // 1000-byte bucket = two 500-byte packets
		t.Fatalf("forward leap bought %d free packets, want 2", free)
	}
}

// TestPacerJitterSelfCorrects: oversleeping a wait (within the burst
// allowance) is repaid by the credit that accrues during it — cumulative
// throughput tracks the rate, not the timer quality. This is the
// property that keeps live goodput at the configured rate on a noisy CI
// machine.
func TestPacerJitterSelfCorrects(t *testing.T) {
	p := NewPacer(units.Mbps, 1000)
	now := t0
	const n = 200
	for i := 0; i < n; i++ {
		wait := p.Reserve(1000, now)
		// A scheduler that always oversleeps by 2 ms (a quarter of the
		// 8 ms packet time).
		now = now.Add(wait + 2*time.Millisecond)
	}
	elapsed := now.Sub(t0)
	got := units.RateFromBytes(int64(n*1000), elapsed)
	// The steady-state wait shrinks to absorb the overshoot, so the
	// long-run rate stays within a few percent of the target (the gap is
	// the first packets' burst warm-up).
	if got < 0.95*units.Mbps || got > 1.05*units.Mbps {
		t.Fatalf("throughput %v under 2ms oversleep, want ~1 Mbit/s", got)
	}
}

// TestPacerTable exercises SetRate while the bucket is in debt, clock
// jumps mid-Reserve, the burst cap and the clamps as step tables: each step
// either reserves bytes (checking the returned wait) or changes the rate at
// a given instant. Every script runs on a Pacer and on a bare Bucket, which
// must agree to the nanosecond: they are one arithmetic, with and without
// the lock.
func TestPacerTable(t *testing.T) {
	type step struct {
		at      time.Duration // offset from t0
		reserve int           // bytes to reserve; 0 means SetRate instead
		rate    units.BitRate // new rate when reserve == 0
		want    time.Duration // expected wait for reserve steps
	}
	cases := []struct {
		name  string
		rate  units.BitRate
		burst int
		steps []step
	}{
		{
			// SetRate during token debt settles the elapsed time at the
			// OLD rate, then prices the remaining debt at the NEW rate:
			// 2000 B at 1000 B/s drains the 1000 B bucket into −1000 B.
			// 500 ms later the old rate has repaid 500 B (debt −500), and
			// doubling the rate prices the next shortfall at 2000 B/s.
			name: "setrate while in debt settles then reprices",
			rate: 8000, burst: 1000,
			steps: []step{
				{at: 0, reserve: 2000, want: time.Second},
				{at: 500 * time.Millisecond, rate: 16000},
				{at: 500 * time.Millisecond, reserve: 500, want: 500 * time.Millisecond},
			},
		},
		{
			// A backward clock jump between Reserves contributes no
			// credit: the pacer re-anchors and the debt stands.
			name: "backward jump during reserve adds no credit",
			rate: 8000, burst: 1000,
			steps: []step{
				{at: 0, reserve: 2000, want: time.Second},
				{at: -time.Second, reserve: 1000, want: 2 * time.Second},
				// Re-anchored at t0−1s: 1 s later half the 2000 B debt
				// has been repaid.
				{at: 0, reserve: 0, rate: 8000},
				{at: 0, reserve: 1000, want: 2 * time.Second},
			},
		},
		{
			// A backward jump handed to SetRate also settles to zero
			// elapsed time: no retroactive credit, no panic.
			name: "backward jump during setrate",
			rate: 8000, burst: 1000,
			steps: []step{
				{at: 0, reserve: 1500, want: 500 * time.Millisecond},
				{at: -time.Hour, rate: 80000},
				{at: -time.Hour, reserve: 0, rate: 80000},
				// Total debt of 1000 B priced at 10000 B/s → 100 ms.
				{at: -time.Hour, reserve: 500, want: 100 * time.Millisecond},
			},
		},
		{
			// An hour of idling buys one bucket, not an hour's worth.
			name: "burst cap bounds a far-forward jump",
			rate: 8000, burst: 1000,
			steps: []step{
				{at: 0, reserve: 1000, want: 0},
				{at: time.Hour, reserve: 1000, want: 0},
				{at: time.Hour, reserve: 1000, want: time.Second},
			},
		},
		{
			// Rates at or below zero price debt at MinPacerRate, 125 B/s.
			name: "rate at or below zero clamps",
			rate: 0, burst: 100,
			steps: []step{
				{at: 0, reserve: 100, want: 0},
				{at: 0, reserve: 125, want: time.Second},
				{at: 0, rate: 8000},
				{at: 0, rate: -1},
				{at: 0, reserve: 125, want: 2 * time.Second},
			},
		},
		{
			name: "a reserve of nothing or less is free and charges nothing",
			rate: 8000, burst: 1000,
			steps: []step{
				{at: 0, reserve: -5, want: 0},
				{at: 0, reserve: 1000, want: 0},
				{at: 0, reserve: -1000, want: 0},
				{at: 0, reserve: 1000, want: time.Second},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := NewPacer(tc.rate, tc.burst)
			var b Bucket
			b.Init(tc.rate, tc.burst)
			for i, st := range tc.steps {
				now := t0.Add(st.at)
				if st.reserve == 0 {
					setPacerRate(p, st.rate, now)
					b.SetRate(st.rate, st.at)
					continue
				}
				wait := p.Reserve(st.reserve, now)
				if diff := wait - st.want; diff < -time.Microsecond || diff > time.Microsecond {
					t.Fatalf("step %d: wait %v, want %v", i, wait, st.want)
				}
				if got := b.Reserve(st.reserve, st.at); got != wait {
					t.Fatalf("step %d: the bucket waits %v, the pacer %v", i, got, wait)
				}
			}
			if b.rate != pacerRate(p) || b.burst != pacerBurst(p) {
				t.Fatalf("bucket ends at %v / %d B, pacer at %v / %d B", b.rate, b.burst, pacerRate(p), pacerBurst(p))
			}
		})
	}
}

// floatBucket is the token bucket Bucket replaced, kept as its oracle: a
// float credit balance in bytes, settled from the elapsed wall time at
// every call. Bucket keeps the same bucket as a GCRA on integer time, and
// FuzzBucket holds the two to one schedule.
type floatBucket struct {
	rate   units.BitRate
	burst  float64
	tokens float64
	last   time.Time
	set    bool
}

func (b *floatBucket) Init(rate units.BitRate, burstBytes int) {
	if burstBytes <= 0 {
		burstBytes = MaxDatagram
	}
	*b = floatBucket{burst: float64(burstBytes), tokens: float64(burstBytes)}
	b.setRate(rate)
}

func (b *floatBucket) SetRate(rate units.BitRate, now time.Time) {
	b.settle(now)
	b.setRate(rate)
}

func (b *floatBucket) setRate(rate units.BitRate) {
	if rate < MinPacerRate {
		rate = MinPacerRate
	}
	b.rate = rate
}

func (b *floatBucket) Reserve(n int, now time.Time) time.Duration {
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

func (b *floatBucket) settle(now time.Time) {
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

// fuzzRate decodes a rate from two bytes and a scale: anything from
// −3.3 Tb/s to 3.3 Tb/s, zero and the negatives included (they clamp to
// MinPacerRate).
func fuzzRate(v int16, scale uint8) units.BitRate {
	r := units.BitRate(v)
	for i := uint8(0); i < scale%9; i++ {
		r *= 10
	}
	return r
}

// FuzzBucket holds the GCRA Bucket to floatBucket on random scripts:
// charges at repeated instants, small steps both ways, hour-long leaps and
// backward jumps, sends that follow the returned wait, and rate changes
// (≤ 0 included) in and out of debt, on bursts ≤ 0 as well. Every wait
// must agree within 1 µs, the tolerance TestPacerTable uses. And a sender
// that paces n datagrams by each bucket's own waits must end within n ns
// of the float schedule: a per-charge rounding may not accumulate.
func FuzzBucket(f *testing.F) {
	f.Add(int16(8), uint8(3), int16(1000), []byte{0, 0, 0xe8, 0x03, 1, 0, 0xe8, 0x03, 2, 0, 1, 5, 0, 0xd0, 0x07})
	f.Add(int16(0), uint8(0), int16(-1), []byte{0, 0, 100, 0, 12, 0, 0xff, 0x7f, 6, 0x10, 0x27, 8, 0, 0, 0x7d, 0})
	f.Add(int16(1), uint8(8), int16(100), []byte{0, 0, 100, 0, 2, 0, 1, 0, 2, 1, 0, 0, 0, 0xff, 0x7f, 3, 0xe8, 0x03, 4})
	f.Add(int16(-5), uint8(4), int16(0), []byte{17, 0, 0xdc, 0x05, 9, 0, 0, 3, 0, 0xdc, 0x05, 10, 1, 0, 8, 0, 0x80})
	f.Fuzz(func(t *testing.T, rate0 int16, scale0 uint8, burst int16, script []byte) {
		if len(script) > 4096 {
			script = script[:4096]
		}
		origin := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
		var ref floatBucket
		var gcra Bucket
		ref.Init(fuzzRate(rate0, scale0), int(burst))
		gcra.Init(fuzzRate(rate0, scale0), int(burst))
		if gcra.burst != int(ref.burst) {
			t.Fatalf("burst %d B, the float bucket %v B", gcra.burst, ref.burst)
		}
		at := time.Duration(0)
		var lastWait time.Duration
		next := func(n int) []byte {
			if len(script) < n {
				return nil
			}
			b := script[:n]
			script = script[n:]
			return b
		}
		for op := next(3); op != nil; op = next(3) {
			arg := int16(uint16(op[1]) | uint16(op[2])<<8)
			switch op[0] % 6 { // when
			case 0: // the same instant again
			case 1:
				at += time.Duration(arg) * time.Microsecond // a small step, either way
			case 2:
				at += lastWait // the sender follows the last wait
			case 3:
				at += time.Duration(op[0]/6%3+1) * time.Hour
			case 4:
				at -= time.Duration(op[0]/6%3+1) * time.Hour
			case 5:
				at += time.Duration(arg) * time.Nanosecond
			}
			now := origin.Add(at)
			if op[0]/6%4 == 3 { // a rate change; its scale rides in a byte of its own
				s := next(1)
				if s == nil {
					break
				}
				r := fuzzRate(arg, s[0])
				ref.SetRate(r, now)
				gcra.SetRate(r, at)
				if gcra.rate != ref.rate {
					t.Fatalf("SetRate(%v): rate %v, the float bucket %v", r, gcra.rate, ref.rate)
				}
				continue
			}
			want := ref.Reserve(int(arg), now)
			got := gcra.Reserve(int(arg), at)
			if d := got - want; d < -time.Microsecond || d > time.Microsecond {
				t.Fatalf("Reserve(%d) at %v on %v: wait %v, the float bucket %v", arg, at, gcra.rate, got, want)
			}
			lastWait = want
		}

		// Drift: both pace the same datagrams from a fresh bucket, each by
		// its own waits.
		const n = 200
		size := int(burst)%1500 + 1501 // always more than one MTU of credit, so the burst runs out
		ref.Init(fuzzRate(rate0, scale0), int(burst))
		gcra.Init(fuzzRate(rate0, scale0), int(burst))
		var refAt, gcraAt time.Duration
		for i := 0; i < n; i++ {
			refAt += ref.Reserve(size, origin.Add(refAt))
			gcraAt += gcra.Reserve(size, gcraAt)
		}
		if d := gcraAt - refAt; d < -n || d > n {
			t.Fatalf("%d datagrams of %d B at %v: the schedule ends %v off the float one", n, size, gcra.rate, d)
		}
	})
}

// setPacerRate is Bucket.SetRate under the pacer's lock.
func setPacerRate(p *Pacer, rate units.BitRate, now time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.b.SetRate(rate, p.sinceLocked(now))
}

// pacerRate returns the pacer's current (clamped) rate.
func pacerRate(p *Pacer) units.BitRate {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.b.rate
}

// pacerBurst returns the pacer's bucket capacity in bytes.
func pacerBurst(p *Pacer) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.b.burst
}
