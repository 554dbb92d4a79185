package experiments

import (
	"testing"
	"time"

	"repro/internal/packet"

	"repro/internal/units"
)

// TestSmokeConvergence runs the paper's base scenario (2 PELS flows, TCP
// cross traffic) and checks that MKC converges near the closed-form
// equilibrium, yellow/green losses stay ~0, and red loss approaches p_thr.
func TestSmokeConvergence(t *testing.T) {
	cfg := DefaultTestbedConfig()
	tb, err := NewTestbed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tb.RecordDelays()
	if err := tb.Run(60 * time.Second); err != nil {
		t.Fatal(err)
	}

	want := tb.StationaryRate().KbpsValue()
	for i, rs := range tb.RateSeries {
		got := rs.MeanAfter(30 * time.Second)
		t.Logf("flow %d mean rate after 30s: %.1f kb/s (want ~%.1f)", i, got, want)
		if got < want*0.85 || got > want*1.15 {
			t.Errorf("flow %d rate %.1f kb/s not within 15%% of %.1f", i, got, want)
		}
	}

	loss := tb.MeasuredPELSLoss(30 * time.Second)
	t.Logf("mean feedback loss after 30s: %.4f", loss)

	g := tb.PELSQueues.PELS.ColorCounters(packet.Green)
	y := tb.PELSQueues.PELS.ColorCounters(packet.Yellow)
	r := tb.PELSQueues.PELS.ColorCounters(packet.Red)
	t.Logf("green: arr=%d drop=%d  yellow: arr=%d drop=%d  red: arr=%d drop=%d (%.2f)",
		g.Arrived, g.Dropped, y.Arrived, y.Dropped, r.Arrived, r.Dropped, r.LossRate())
	if g.Dropped != 0 {
		t.Errorf("green drops = %d, want 0", g.Dropped)
	}
	if y.LossRate() > 0.01 {
		t.Errorf("yellow loss rate %.4f, want ~0", y.LossRate())
	}
	redLoss := tb.RedLossSeries.MeanAfter(30 * time.Second)
	t.Logf("mean red loss after 30s: %.3f (target 0.75)", redLoss)
	t.Logf("gamma flow0 tail: %.4f", tb.GammaSeries[0].Last())
	t.Logf("green delay mean: %.2f ms, yellow: %.2f ms, red: %.2f ms",
		tb.GreenDelay.Mean(), tb.YellowDelay.Mean(), tb.RedDelay.Mean())
	for i, s := range tb.Sinks {
		st := s.Stats()
		t.Logf("sink %d: frames=%d baseComplete=%d meanUtil=%.3f aggUtil=%.3f",
			i, st.Frames, st.BaseComplete, st.MeanUtility, st.AggregateUtil)
	}
	tcpBytes := int64(0)
	for _, r := range tb.TCPReceivers {
		tcpBytes += r.BytesDelivered()
	}
	t.Logf("tcp delivered: %.2f mb/s", float64(tcpBytes)*8/60/1e6)
	t.Logf("bottleneck utilization: %.3f", tb.Forward.Utilization(60*time.Second))
	_ = units.Mbps
}
