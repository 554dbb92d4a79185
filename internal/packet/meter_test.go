package packet

import (
	"encoding/binary"
	"math"
	"testing"
	"time"

	"repro/internal/units"
)

// refRouter is the measurement state aqm.Feedback and wire.Gateway each
// kept before Meter, with their two eq. 11 bodies as they were:
// compute closed a window of the fixed T on the simulator's tick,
// advanceLocked one of the elapsed length on the wall clock. FuzzMeter
// holds Meter to both.
type refRouter struct {
	interval time.Duration
	capacity units.BitRate
	minLoss  float64
	bytes    int64
	epoch    uint64
	loss     float64
}

// compute is aqm.Feedback's eq. 11 body.
func (f *refRouter) compute() units.BitRate {
	rate := units.RateFromBytes(f.bytes, f.interval)
	loss := f.minLoss
	if rate > 0 {
		loss = (float64(rate) - float64(f.capacity)) / float64(rate)
		if loss < f.minLoss {
			loss = f.minLoss
		}
	}
	f.loss = loss
	f.epoch++
	f.bytes = 0
	return rate
}

// advance is wire.Gateway's eq. 11 body, run once elapsed ≥ T.
func (g *refRouter) advance(elapsed time.Duration) units.BitRate {
	rate := units.RateFromBytes(g.bytes, elapsed)
	loss := g.minLoss
	if rate > 0 {
		loss = (float64(rate) - float64(g.capacity)) / float64(rate)
		if loss < g.minLoss {
			loss = g.minLoss
		}
	}
	g.loss = loss
	g.epoch++
	g.bytes = 0
	return rate
}

// FuzzMeter runs a script through a Meter and the reference side by side
// and compares epoch, loss and rate bit for bit after every step. The
// script is read three bytes a step: an opcode and a 16-bit argument.
// Opcodes: add that many bytes; close a window of T (the simulator's
// tick); close a window of T plus that many microseconds (a late live
// window); set the capacity to that many kb/s plus one. Idle windows and
// the clamp come from closes with few or no bytes added.
func FuzzMeter(f *testing.F) {
	f.Add(uint32(30e6), uint32(2000), []byte{1, 0, 0, 2, 0, 9})                         // idle windows
	f.Add(uint32(30e6), uint32(2000), []byte{0, 0, 10, 1, 0, 0})                        // a trickle: clamped
	f.Add(uint32(30e6), uint32(2000), []byte{0, 0x3a, 0x98, 1, 0, 0, 0, 1, 0, 1, 0, 0}) // 15000 B: p = 0.5
	f.Add(uint32(10e6), uint32(1000), []byte{0, 0x09, 0xc4, 2, 0x27, 0x10, 3, 0, 0, 0, 0xff, 0xff, 2, 0, 0})
	f.Fuzz(func(t *testing.T, intervalNs, capKbps uint32, script []byte) {
		interval := time.Duration(intervalNs) + 1
		capacity := units.BitRate(1000 * (1 + float64(capKbps)))
		m := NewMeter(interval, capacity)
		ref := refRouter{interval: interval, capacity: capacity, minLoss: -2, loss: -2}
		for i := 0; i+3 <= len(script); i += 3 {
			arg := binary.BigEndian.Uint16(script[i+1:])
			var got, want units.BitRate
			switch script[i] % 4 {
			case 0:
				m.Add(int(arg))
				ref.bytes += int64(arg)
			case 1:
				got, want = m.Close(interval), ref.compute()
			case 2:
				elapsed := interval + time.Duration(arg)*time.Microsecond
				got, want = m.Close(elapsed), ref.advance(elapsed)
			case 3:
				c := units.BitRate(1000 * (1 + float64(arg)))
				m.SetCapacity(c)
				ref.capacity = c
			}
			if math.Float64bits(float64(got)) != math.Float64bits(float64(want)) {
				t.Fatalf("step %d: rate %v, the reference %v", i/3, got, want)
			}
			if m.Epoch() != ref.epoch || math.Float64bits(m.Loss()) != math.Float64bits(ref.loss) {
				t.Fatalf("step %d: (z, p) = (%d, %v), the reference (%d, %v)",
					i/3, m.Epoch(), m.Loss(), ref.epoch, ref.loss)
			}
			if m.Capacity() != ref.capacity || m.Interval() != interval {
				t.Fatalf("step %d: (T, C) = (%v, %v), want (%v, %v)",
					i/3, m.Interval(), m.Capacity(), interval, ref.capacity)
			}
			if fb := m.Label(7); fb != (Feedback{RouterID: 7, Epoch: ref.epoch, Loss: ref.loss, Valid: true}) {
				t.Fatalf("step %d: label %+v", i/3, fb)
			}
		}
	})
}

// TestMeterValidation: a window must have a length and the link a capacity,
// at construction and when the capacity changes.
func TestMeterValidation(t *testing.T) {
	for name, build := range map[string]func(){
		"zero interval":     func() { NewMeter(0, units.Mbps) },
		"negative interval": func() { NewMeter(-time.Millisecond, units.Mbps) },
		"zero capacity":     func() { NewMeter(time.Millisecond, 0) },
		"negative capacity": func() { NewMeter(time.Millisecond, -units.Mbps) },
		"SetCapacity(0)": func() {
			m := NewMeter(time.Millisecond, units.Mbps)
			m.SetCapacity(0)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			build()
		}()
	}
}
