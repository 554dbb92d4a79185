package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/stats"
)

// figure8At regenerates the staircase-workload delays of paper Fig. 8
// (green and yellow queueing delays) and Fig. 9 left (red delays): two new
// flows join every 50 seconds, progressively loading the PELS queues. The
// paper reports green ≈ 16 ms and yellow ≈ 25 ms on average, with red
// reaching ≈ 400 ms. It runs five steps (10 flows, 250 s), or as many
// whole steps as the geometry's duration holds.
func figure8At(g geometry) (Result, error) {
	const perStep, stepEvery = 2, 50 * time.Second
	steps := int(g.or(5*stepEvery) / stepEvery)
	n, duration := perStep*steps, stepEvery*time.Duration(steps)
	tcfg := DefaultTestbedConfig()
	tcfg.Seed, tcfg.NumPELS = g.seed, n
	tcfg.StartTimes = make([]time.Duration, n)
	for i := range tcfg.StartTimes {
		tcfg.StartTimes[i] = stepEvery * time.Duration(i/perStep)
	}
	tb, err := NewTestbed(tcfg)
	if err != nil {
		return Result{}, fmt.Errorf("experiments: figure 8: %w", err)
	}
	tb.RecordTraces()
	if err := tb.Run(duration); err != nil {
		return Result{}, fmt.Errorf("experiments: figure 8: %w", err)
	}
	colors := []struct {
		name   string
		series *stats.TimeSeries
	}{{"green", tb.GreenDelay}, {"yellow", tb.YellowDelay}, {"red", tb.RedDelay}}
	m := make(map[string]float64)
	summaries := make([]stats.DelaySummary, len(colors))
	for i, c := range colors {
		summaries[i] = stats.SummarizeDelays(c.series.Values())
		m[c.name+"_mean_ms"] = c.series.Mean()
		m[c.name+"_p50_ms"], m[c.name+"_p90_ms"], m[c.name+"_p99_ms"] = summaries[i].P50, summaries[i].P90, summaries[i].P99
	}
	m["red_max_ms"] = summaries[2].Max
	m["green_lost"] = greenLost(tb, 0)

	var b strings.Builder
	fmt.Fprintf(&b, "staircase workload: %d flows over %v\n", n, duration)
	fmt.Fprintf(&b, "mean delays: green=%.2f ms  yellow=%.2f ms  red=%.2f ms (max %.0f ms)\n",
		m["green_mean_ms"], m["yellow_mean_ms"], m["red_mean_ms"], m["red_max_ms"])
	b.WriteString("red delay staircase (per 50s step): ")
	for step := 0; step < steps; step++ {
		if step > 0 {
			b.WriteString(", ")
		}
		lo := stepEvery * time.Duration(step)
		fmt.Fprintf(&b, "%.0f ms", tb.RedDelay.MeanBetween(lo, lo+stepEvery))
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%-8s %-10s %-10s %-10s %-10s %-10s\n", "color", "p50", "p90", "p99", "max", "samples")
	for i, c := range colors {
		s := summaries[i]
		fmt.Fprintf(&b, "%-8s %-10.1f %-10.1f %-10.1f %-10.0f %-10d\n", c.name, s.P50, s.P90, s.P99, s.Max, s.N)
	}
	return Result{
		Output:    b.String(),
		Events:    tb.Eng.Processed(),
		Obs:       tb.Obs,
		Artifacts: []Artifact{{Name: "fig8_delays.csv", Series: []*stats.TimeSeries{tb.GreenDelay, tb.YellowDelay, tb.RedDelay}}},
		Metrics:   m,
	}, nil
}
