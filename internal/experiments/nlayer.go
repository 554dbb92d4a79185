package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/queue"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/units"
)

// NLayerConfig parameterizes the N-layer ladder run: the standard bar-bell
// testbed with the priority set generalized from the paper's three colors
// to Layers strict-priority queues, and every session splitting frames with
// the default γ ladder (fgs.Ladder — N−1 split points interpolated from the
// full enhancement down to the controller's γ).
type NLayerConfig struct {
	Seed     int64
	Duration time.Duration
	// Layers is the priority-layer count (default 8, the quality ladder
	// depth of real SHVC bitstreams).
	Layers  int
	NumPELS int
	NumTCP  int
}

// DefaultNLayerConfig runs an 8-layer ladder at moderate congestion.
func DefaultNLayerConfig() NLayerConfig {
	return NLayerConfig{
		Seed:     1,
		Duration: 60 * time.Second,
		Layers:   8,
		NumPELS:  4,
		NumTCP:   2,
	}
}

// NLayerLayerStats is the outcome for one priority layer.
type NLayerLayerStats struct {
	Layer   int
	Name    string
	Arrived int64
	Dropped int64
	// Loss is the layer queue's lifetime drop fraction.
	Loss float64
	// MeanDelayMs is the layer's mean bottleneck queueing delay.
	MeanDelayMs float64
	// MeanOccupancy is the layer queue's mean length in packets, sampled
	// on the testbed's probe interval.
	MeanOccupancy float64
}

// NLayerResult is the outcome of the ladder run.
type NLayerResult struct {
	Layers    []NLayerLayerStats
	GammaTail float64
	// TotalLoss is the drop fraction over all layers together.
	TotalLoss float64
	Rate      units.BitRate // flow 0's final controller rate
	Events    uint64
	Obs       *obs.Registry
	// Occupancy holds the per-layer occupancy series exported to CSV.
	Occupancy []*stats.TimeSeries
}

// NLayer runs the generalized ladder through the standard testbed. The
// strict-priority invariant must survive the generalization: loss is
// (weakly) increasing in layer index, the base layer lossless in normal
// operation, and the top probe layer absorbing the congestion.
func NLayer(cfg NLayerConfig) (NLayerResult, error) {
	if cfg.Layers < 2 || cfg.Layers > packet.MaxLayers {
		return NLayerResult{}, fmt.Errorf("experiments: nlayer: layer count %d out of [2,%d]", cfg.Layers, packet.MaxLayers)
	}
	tcfg := DefaultTestbedConfig()
	tcfg.Seed = cfg.Seed
	tcfg.NumPELS = cfg.NumPELS
	tcfg.NumTCP = cfg.NumTCP
	tcfg.Bottleneck.Priority = queue.NLayerPriorityConfig(cfg.Layers)
	tb, err := NewTestbed(tcfg)
	if err != nil {
		return NLayerResult{}, fmt.Errorf("experiments: nlayer: %w", err)
	}
	tb.RecordTraces()

	// Per-layer occupancy series, sampled on the same cadence as the
	// testbed's queue probe so the CSV lines up with the drop series.
	occ := make([]*stats.TimeSeries, cfg.Layers)
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

	if err := tb.Run(cfg.Duration); err != nil {
		return NLayerResult{}, err
	}

	res := NLayerResult{
		GammaTail: tb.GammaSeries[0].MeanAfter(cfg.Duration * 3 / 4),
		Rate:      tb.Sources[0].Rate(),
		Events:    tb.Eng.Processed(),
		Obs:       tb.Obs,
		Occupancy: occ,
	}
	var arrived, dropped int64
	for i := 0; i < cfg.Layers; i++ {
		c := tb.PELSQueues.PELS.Layer(i).Counters
		arrived += c.Arrived
		dropped += c.Dropped
		res.Layers = append(res.Layers, NLayerLayerStats{
			Layer:         i,
			Name:          packet.LayerName(i),
			Arrived:       c.Arrived,
			Dropped:       c.Dropped,
			Loss:          c.LossRate(),
			MeanDelayMs:   tb.LayerDelay[i].Mean(),
			MeanOccupancy: occ[i].Mean(),
		})
	}
	if arrived > 0 {
		res.TotalLoss = float64(dropped) / float64(arrived)
	}
	return res, nil
}

// Metrics flattens the per-layer outcomes for pelsbench -json.
func (r NLayerResult) Metrics() map[string]float64 {
	m := map[string]float64{
		"gamma_tail": r.GammaTail,
		"total_loss": r.TotalLoss,
		"rate_kbps":  r.Rate.KbpsValue(),
	}
	for _, l := range r.Layers {
		m[l.Name+"_loss"] = l.Loss
		m[l.Name+"_mean_delay_ms"] = l.MeanDelayMs
		m[l.Name+"_mean_occupancy"] = l.MeanOccupancy
	}
	return m
}

// FormatNLayer renders the per-layer table.
func FormatNLayer(r NLayerResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d-layer ladder: total loss %.4f, gamma tail %.4f, flow-0 rate %.0f kb/s\n",
		len(r.Layers), r.TotalLoss, r.GammaTail, r.Rate.KbpsValue())
	fmt.Fprintf(&b, "%-8s %-10s %-10s %-10s %-12s %-12s\n",
		"layer", "arrived", "dropped", "loss", "delay(ms)", "occupancy")
	for _, l := range r.Layers {
		fmt.Fprintf(&b, "%-8s %-10d %-10d %-10.4f %-12.2f %-12.2f\n",
			l.Name, l.Arrived, l.Dropped, l.Loss, l.MeanDelayMs, l.MeanOccupancy)
	}
	return b.String()
}
