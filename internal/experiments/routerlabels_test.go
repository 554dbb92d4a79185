package experiments

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/aqm"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/wire"
)

// TestRouterLabelsAgree feeds one arrival script to the simulator's router
// (aqm.Feedback on a sim.Engine) and to the live one (wire.Gateway on a
// fake clock), with a green probe at every boundary kT, and requires the
// two to stamp the same (router, epoch, loss) on every probe, loss bit for
// bit. Arrivals fall strictly inside windows; a window holds anything from
// the probe alone (the MinLoss clamp) to about four times the capacity.
func TestRouterLabelsAgree(t *testing.T) {
	const (
		routerID  = 7
		windows   = 200
		probeSize = 100
	)
	interval, capacity := 30*time.Millisecond, 2*units.Mbps
	type arrival struct {
		at    time.Duration
		size  int
		color packet.Color
	}
	colors := []packet.Color{packet.Green, packet.Yellow, packet.Red, packet.BestEffort}
	rng := rand.New(rand.NewSource(1))
	script := make([][]arrival, windows)
	for k := range script {
		start := time.Duration(k) * interval
		n := rng.Intn(21)
		offsets := make([]time.Duration, n)
		for i := range offsets {
			offsets[i] = time.Duration(1 + rng.Int63n(int64(interval)-1))
		}
		slices.Sort(offsets)
		for _, off := range offsets {
			script[k] = append(script[k], arrival{
				at:    start + off,
				size:  wire.HeaderSize + 1 + rng.Intn(wire.MaxDatagram-wire.HeaderSize),
				color: colors[rng.Intn(len(colors))],
			})
		}
	}

	// The simulator: arrivals are engine events; the probe at kT is
	// processed after the tick at kT has closed window k.
	eng := sim.NewEngine(1)
	fb := aqm.NewFeedback(eng, aqm.FeedbackConfig{RouterID: routerID, Interval: interval, Capacity: capacity})
	for _, w := range script {
		for _, a := range w {
			p := &packet.Packet{Size: a.size, Color: a.color}
			eng.AtFunc(a.at, func() { fb.Process(p) })
		}
	}
	simLabels := make([]packet.Feedback, windows)
	for k := range simLabels {
		if err := eng.RunUntil(time.Duration(k) * interval); err != nil {
			t.Fatal(err)
		}
		probe := &packet.Packet{Size: probeSize, Color: packet.Green}
		fb.Process(probe)
		simLabels[k] = probe.Feedback
	}

	// The live stack: the same instants on a fake clock.
	t0 := time.Unix(1700000000, 0)
	now := t0
	gw := wire.NewGateway(wire.GatewayConfig{
		RouterID: routerID,
		Interval: interval,
		Capacity: capacity,
		Now:      func() time.Time { return now },
	})
	datagram := func(c packet.Color, size int) []byte {
		b, err := wire.EncodeDatagram(wire.Header{Type: wire.TypeData, Color: c}, make([]byte, size-wire.HeaderSize))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for k, w := range script {
		now = t0.Add(time.Duration(k) * interval)
		probe := datagram(packet.Green, probeSize)
		gw.Mark(probe)
		h, _, err := wire.DecodeDatagram(probe)
		if err != nil {
			t.Fatal(err)
		}
		s := simLabels[k]
		if h.Feedback.RouterID != s.RouterID || h.Feedback.Epoch != s.Epoch ||
			h.Feedback.Valid != s.Valid || math.Float64bits(h.Feedback.Loss) != math.Float64bits(s.Loss) {
			t.Fatalf("window %d: live label %+v, simulator %+v", k, h.Feedback, s)
		}
		for _, a := range w {
			now = t0.Add(a.at)
			gw.Mark(datagram(a.color, a.size))
		}
	}

	// The script must have reached both the clamp and real congestion.
	var clamped, congested bool
	for _, l := range simLabels {
		clamped = clamped || l.Loss == packet.MinLoss
		congested = congested || l.Loss > 0.5
	}
	if !clamped || !congested {
		t.Fatalf("script too narrow: clamped %v, loss > 0.5 %v", clamped, congested)
	}
}
