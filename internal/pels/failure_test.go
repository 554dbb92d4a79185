package pels

import (
	"math"
	"testing"
	"time"

	"repro/internal/aqm"
	"repro/internal/netsim"
	"repro/internal/queue"
	"repro/internal/sim"
	"repro/internal/units"
)

// lossyRig builds a single-flow path whose REVERSE (ACK) direction drops
// packets Bernoulli(ackLoss): feedback delivery becomes unreliable even
// though the forward data path is governed by the PELS queues.
func lossyRig(t *testing.T, ackLoss float64, capacity units.BitRate) (*sim.Engine, *Source, *Sink) {
	t.Helper()
	eng := sim.NewEngine(1)
	nw := netsim.NewNetwork(eng)
	h1 := nw.NewHost("src")
	h2 := nw.NewHost("dst")
	r1 := nw.NewRouter("r1")
	r2 := nw.NewRouter("r2")

	fb := aqm.NewFeedback(eng, aqm.FeedbackConfig{
		RouterID: r1.ID(), Interval: 30 * time.Millisecond, Capacity: capacity,
	})
	bneck := aqm.NewBottleneck(aqm.DefaultBottleneckConfig())

	access := netsim.LinkConfig{Rate: 10 * units.Mbps, Delay: time.Millisecond}
	nw.Connect(h1, r1, access, access)
	fwd, _ := nw.Connect(r1, r2,
		netsim.LinkConfig{Rate: capacity, Delay: 5 * time.Millisecond, Disc: bneck.Disc},
		netsim.LinkConfig{
			Rate: capacity, Delay: 5 * time.Millisecond,
			// The reverse link carries only ACKs, none green, so the
			// oracle drops each with probability ackLoss, unscaled.
			Disc: queue.NewOracleFIFO(0, func() float64 { return ackLoss }, eng.Rand()),
		})
	fwd.Proc = fb
	nw.Connect(r2, h2, access, access)
	if err := nw.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	src, sink, err := Session(nw, h1, h2, Config{Flow: 1})
	if err != nil {
		t.Fatal(err)
	}
	return eng, src, sink
}

// TestSurvivesLossyAckPath: with 30% of ACKs destroyed, the control loop
// still converges — every data packet carries the freshest router label,
// so any surviving ACK delivers up-to-date feedback.
func TestSurvivesLossyAckPath(t *testing.T) {
	eng, src, sink := lossyRig(t, 0.3, 500*units.Kbps)
	src.Start(0)
	if err := eng.RunUntil(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	cfg := Config{}.WithDefaults()
	want := cfg.MKC.StationaryRate(500*units.Kbps, 1).KbpsValue()
	got := src.Rate().KbpsValue()
	if math.Abs(got-want) > want*0.15 {
		t.Errorf("rate = %.1f kb/s with 30%% ACK loss, want ~%.1f", got, want)
	}
	if st := sink.Stats(); st.MeanUtility < 0.85 {
		t.Errorf("utility = %.3f with lossy ACK path", st.MeanUtility)
	}
}

// TestSurvivesSevereAckLoss: even at 80% ACK loss, rate updates thin out
// but the session neither stalls nor diverges.
func TestSurvivesSevereAckLoss(t *testing.T) {
	eng, src, sink := lossyRig(t, 0.8, 500*units.Kbps)
	src.Start(0)
	if err := eng.RunUntil(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	got := src.Rate().KbpsValue()
	// Looser band: with 4/5 of feedback gone, the loop is sluggish but
	// must remain in a sane operating range around the fair rate.
	if got < 300 || got > 900 {
		t.Errorf("rate = %.1f kb/s with 80%% ACK loss, want within [300, 900]", got)
	}
	if sink.Received().Datagrams == 0 {
		t.Error("no data delivered")
	}
}

// TestStallsGracefullyOnDeadAckPath: with a fully black-holed ACK path no
// feedback ever arrives; the source must stay at its initial rate (which
// is floored at the base-layer rate) rather than ramping open-loop.
func TestStallsGracefullyOnDeadAckPath(t *testing.T) {
	eng, src, _ := lossyRig(t, 1.0, 500*units.Kbps)
	src.Start(0)
	if err := eng.RunUntil(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	cfg := Config{}.WithDefaults()
	if got := src.Rate(); got != cfg.MKC.MinRate && got != cfg.MKC.InitialRate {
		// Initial 128 kb/s is floored to the base rate by WithDefaults.
		t.Errorf("rate = %v without any feedback, want the initial/base rate", got)
	}
	if int64(src.sess.Stats().Datagrams) == 0 {
		t.Error("source stopped sending entirely; base layer should continue")
	}
}
