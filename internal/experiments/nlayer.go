package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/packet"
	"repro/internal/queue"
	"repro/internal/sim"
	"repro/internal/stats"
)

// nLayerAt runs the N-layer ladder: the standard bar-bell testbed (4 PELS
// and 2 TCP flows, 60 s unless the geometry says otherwise) with the
// priority set generalized from the paper's three colors to 8
// strict-priority queues, the quality ladder depth of real SHVC
// bitstreams, and every session splitting frames with the default γ
// ladder (fgs.Ladder — N−1 split points interpolated from the full
// enhancement down to the controller's γ). The strict-priority invariant
// must survive the generalization: loss is (weakly) increasing in layer
// index, the base layer lossless in normal operation, and the top probe
// layer absorbing the congestion. Each layer reports its lifetime drop
// fraction, mean bottleneck queueing delay and mean queue length in
// packets, sampled on the testbed's probe interval.
func nLayerAt(g geometry) (Result, error) {
	const layers = 8
	duration := g.or(60 * time.Second)
	tcfg := DefaultTestbedConfig()
	tcfg.Seed, tcfg.NumPELS, tcfg.NumTCP = g.seed, 4, 2
	tcfg.Bottleneck.Priority = queue.NLayerPriorityConfig(layers)
	tb, err := NewTestbed(tcfg)
	if err != nil {
		return Result{}, fmt.Errorf("experiments: nlayer: %w", err)
	}
	tb.RecordTraces()

	// Per-layer occupancy series, sampled on the same cadence as the
	// testbed's queue probe so the CSV lines up with the drop series.
	occ := make([]*stats.TimeSeries, layers)
	for i := range occ {
		occ[i] = tb.Obs.Series("queue." + packet.LayerName(i) + ".occupancy_pkts").TimeSeries()
	}
	occProbe := sim.NewTicker(tb.Eng, tcfg.FeedbackInterval*10, func() {
		now := tb.Eng.Now()
		for i, s := range occ {
			s.Add(now, float64(tb.PELSQueues.PELS.Layer(i).Len()))
		}
	})
	occProbe.Start()

	if err := tb.Run(duration); err != nil {
		return Result{}, err
	}

	m := map[string]float64{
		"gamma_tail": tb.GammaSeries[0].MeanAfter(duration * 3 / 4),
		"total_loss": 0,
		"rate_kbps":  tb.Sources[0].Rate().KbpsValue(),
	}
	var arrived, dropped int64
	for i := 0; i < layers; i++ {
		c, name := tb.PELSQueues.PELS.Layer(i).Counters, packet.LayerName(i)
		arrived += c.Arrived
		dropped += c.Dropped
		m[name+"_loss"] = c.LossRate()
		m[name+"_mean_delay_ms"] = tb.LayerDelay[i].Mean()
		m[name+"_mean_occupancy"] = occ[i].Mean()
	}
	if arrived > 0 {
		m["total_loss"] = float64(dropped) / float64(arrived)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%d-layer ladder: total loss %.4f, gamma tail %.4f, flow-0 rate %.0f kb/s\n",
		layers, m["total_loss"], m["gamma_tail"], m["rate_kbps"])
	fmt.Fprintf(&b, "%-8s %-10s %-10s %-10s %-12s %-12s\n",
		"layer", "arrived", "dropped", "loss", "delay(ms)", "occupancy")
	for i := 0; i < layers; i++ {
		c, name := tb.PELSQueues.PELS.Layer(i).Counters, packet.LayerName(i)
		fmt.Fprintf(&b, "%-8s %-10d %-10d %-10.4f %-12.2f %-12.2f\n",
			name, c.Arrived, c.Dropped, m[name+"_loss"], m[name+"_mean_delay_ms"], m[name+"_mean_occupancy"])
	}
	return Result{
		Output:    b.String(),
		Events:    tb.Eng.Processed(),
		Metrics:   m,
		Obs:       tb.Obs,
		Artifacts: []Artifact{{Name: "nlayer_occupancy.csv", Series: occ}},
	}, nil
}
