package crosstraffic

import (
	"math"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/units"
)

type countingSink struct {
	pkts  int64
	bytes int64
}

func (c *countingSink) Receive(p *packet.Packet) {
	c.pkts++
	c.bytes += int64(p.Size)
}

func rig(t *testing.T, paretoShape float64) (*sim.Engine, *OnOff, *countingSink) {
	t.Helper()
	eng := sim.NewEngine(7)
	nw := netsim.NewNetwork(eng)
	h := nw.NewHost("src")
	sink := &countingSink{}
	h.SetUplink(netsim.NewLink(eng, "l", 100*units.Mbps, 0, nil, sink))
	gen := NewOnOff(nw, h, 99, 1, paretoShape)
	return eng, gen, sink
}

func TestOnOffMeanRateHalvesWithDutyCycle(t *testing.T) {
	eng, gen, sink := rig(t, 0)
	gen.Start(0)
	const duration = 120 * time.Second
	if err := eng.RunUntil(duration); err != nil {
		t.Fatal(err)
	}
	// 50% duty cycle at 2 mb/s → ~1 mb/s long-run average.
	got := float64(sink.bytes) * 8 / duration.Seconds() / 1e6
	if math.Abs(got-1.0) > 0.15 {
		t.Errorf("mean rate = %.2f mb/s, want ~1.0", got)
	}
	if gen.onPeriods < 50 {
		t.Errorf("only %d ON periods over %v", gen.onPeriods, duration)
	}
}

func TestOnOffPeakRateDuringOn(t *testing.T) {
	eng, gen, sink := rig(t, 0)
	gen.Start(0)
	// Bytes go out only during ON periods: divided by the sampled ON time,
	// they give the peak rate.
	var onTime time.Duration
	probe := sim.NewTicker(eng, time.Millisecond, func() {
		if gen.on {
			onTime += time.Millisecond
		}
	})
	probe.Start()
	if err := eng.RunUntil(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	got := float64(sink.bytes) * 8 / onTime.Seconds() / 1e6
	if math.Abs(got-2.0) > 0.05 {
		t.Errorf("ON rate = %.2f mb/s, want 2.0", got)
	}
}

func TestOnOffStop(t *testing.T) {
	eng, gen, sink := rig(t, 0)
	gen.Start(0)
	eng.Schedule(time.Second, gen.stop)
	if err := eng.RunUntil(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	at1s := sink.pkts
	if err := eng.RunUntil(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if sink.pkts != at1s {
		t.Error("generator kept sending after stop")
	}
	if gen.on {
		t.Error("on after stop")
	}
}

func TestOnOffParetoHeavyTail(t *testing.T) {
	// With the same mean, Pareto ON periods must produce a larger maximum
	// burst than exponential ones over a long run.
	burstMax := func(shape float64) time.Duration {
		eng, gen, _ := rig(t, shape)
		gen.Start(0)
		var maxOn, onStart time.Duration
		var prevOn bool
		probe := sim.NewTicker(eng, 10*time.Millisecond, func() {
			on := gen.on
			if on && !prevOn {
				onStart = eng.Now()
			}
			if !on && prevOn {
				if d := eng.Now() - onStart; d > maxOn {
					maxOn = d
				}
			}
			prevOn = on
		})
		probe.Start()
		if err := eng.RunUntil(300 * time.Second); err != nil {
			t.Fatal(err)
		}
		return maxOn
	}
	exp := burstMax(0)      // exponential
	pareto := burstMax(1.2) // heavy tail
	t.Logf("max ON burst: exponential %v, pareto %v", exp, pareto)
	if pareto <= exp {
		t.Errorf("pareto max burst %v not above exponential %v", pareto, exp)
	}
}

// TestOnOffDefaultsApplied: the source sends 1000-byte packets paced at
// 2 mb/s, one every 4 ms (each reaches the sink 80 µs later, after the
// 100 mb/s link serializes it).
func TestOnOffDefaultsApplied(t *testing.T) {
	eng, gen, sink := rig(t, 0)
	gen.Start(0)
	if err := eng.RunUntil(3 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !gen.on || sink.pkts != 1 || sink.bytes != 1000 {
		t.Fatalf("first 3 ms: %d packets, %d bytes; want 1 of 1000", sink.pkts, sink.bytes)
	}
	if err := eng.RunUntil(5 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if sink.pkts != 2 {
		t.Errorf("%d packets by 5 ms, want the second one there", sink.pkts)
	}
}
