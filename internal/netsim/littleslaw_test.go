package netsim

import (
	"math"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/queue"
	"repro/internal/sim"
	"repro/internal/units"
)

// TestLittlesLaw validates the queueing core against L = λ·W: for an
// M/D/1-ish queue driven below capacity, the time-average queue length
// must equal the arrival rate times the mean waiting time. A discrepancy
// here would mean the link/queue machinery miscounts time or packets —
// the classic simulator sanity check.
func TestLittlesLaw(t *testing.T) {
	eng := sim.NewEngine(42)
	dst := &collector{eng: eng}
	disc := queue.NewDropTail(0, 0)
	// 1 mb/s link; 500-byte packets take 4 ms to serialize.
	link := NewLink(eng, "l", units.Mbps, 0, disc, dst)

	const (
		lambda   = 180.0 // packets per second (72% load)
		duration = 200 * time.Second
	)
	var sumWait time.Duration
	var served int64
	link.OnTransmit = func(p *packet.Packet) {
		sumWait += p.QueueingDelay()
		served++
	}

	// Poisson arrivals via exponential gaps.
	var arrive func()
	var arrivals int64
	arrive = func() {
		if eng.Now() >= duration {
			return
		}
		arrivals++
		link.Send(&packet.Packet{ID: uint64(arrivals), Size: 500})
		gap := time.Duration(eng.Rand().ExpFloat64() / lambda * float64(time.Second))
		eng.At(eng.Now()+gap, arrive)
	}
	eng.At(eng.Now(), arrive)

	// Sample queue length L by time-averaging at fine intervals.
	var lSum float64
	var lSamples int64
	probe := sim.NewTicker(eng, time.Millisecond, func() {
		lSum += float64(disc.Len())
		lSamples++
	})
	probe.Start()

	if err := eng.RunUntil(duration); err != nil {
		t.Fatal(err)
	}

	lAvg := lSum / float64(lSamples)
	wAvg := sumWait.Seconds() / float64(served)
	lambdaHat := float64(arrivals) / duration.Seconds()
	want := lambdaHat * wAvg
	t.Logf("L=%.3f  λ=%.1f  W=%.5fs  λW=%.3f", lAvg, lambdaHat, wAvg, want)
	if math.Abs(lAvg-want) > 0.05*want+0.05 {
		t.Errorf("Little's law violated: L=%.3f vs λW=%.3f", lAvg, want)
	}

	// And the M/D/1 Pollaczek-Khinchine mean wait: W = ρ·s/(2(1−ρ)) with
	// s the service time — a stronger analytic check of queue dynamics.
	s := 0.004 // seconds per packet
	rho := lambdaHat * s
	pk := rho * s / (2 * (1 - rho))
	if math.Abs(wAvg-pk) > 0.15*pk {
		t.Errorf("M/D/1 mean wait %.5fs deviates from P-K formula %.5fs", wAvg, pk)
	}
}
