package experiments

import (
	"math"
	"testing"
	"time"

	"repro/internal/packet"
)

// TestPELSUnderBurstyCrossTraffic replaces greedy TCP with heavy-tailed
// on-off sources on the Internet queue: WRR isolation must keep the PELS
// control loop at its equilibrium even though the competing load now
// arrives in multi-second Pareto bursts.
func TestPELSUnderBurstyCrossTraffic(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack simulation")
	}
	cfg := DefaultTestbedConfig()
	cfg.NumPELS = 4
	cfg.NumTCP = 0
	cfg.NumOnOff = 3
	cfg.OnOffPareto = 1.3
	tb, err := NewTestbed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Run(90 * time.Second); err != nil {
		t.Fatal(err)
	}

	want := tb.StationaryRate().KbpsValue()
	for i, rs := range tb.RateSeries {
		got := rs.MeanAfter(45 * time.Second)
		if math.Abs(got-want) > want*0.15 {
			t.Errorf("flow %d rate %.0f kb/s under bursty cross traffic, want ~%.0f", i, got, want)
		}
	}
	y := tb.PELSQueues.PELS.ColorCounters(packet.Yellow)
	if y.LossRate() > 0.02 {
		t.Errorf("yellow loss %.4f under bursty cross traffic", y.LossRate())
	}
	for i, s := range tb.Sinks {
		if st := s.Stats(); st.MeanUtility < 0.9 {
			t.Errorf("sink %d utility %.3f", i, st.MeanUtility)
		}
	}
	// The generators really did burst: with no TCP flows, everything the
	// Internet queue saw came from them.
	sent := tb.PELSQueues.Internet.ArrivedBytes
	if sent == 0 {
		t.Fatal("on-off sources sent nothing")
	}
	t.Logf("on-off traffic: %.2f mb/s aggregate", float64(sent)*8/90/1e6)
}
