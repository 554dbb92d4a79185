package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/stats"
)

// Figure8Result holds the staircase-workload delay measurements of paper
// Fig. 8 (green and yellow queueing delays) and Fig. 9 left (red delays):
// two new flows join every 50 seconds, progressively loading the PELS
// queues.
type Figure8Result struct {
	// Green, Yellow, Red are per-packet bottleneck queueing-delay series
	// in milliseconds.
	Green, Yellow, Red *stats.TimeSeries
	// Mean delays over the whole run. The paper reports green ≈ 16 ms and
	// yellow ≈ 25 ms on average, with red reaching ~400 ms.
	GreenMean, YellowMean, RedMean float64
	RedMax                         float64
	// RedStepMeans is the mean red delay within each 50-second step,
	// showing the staircase growth as flows join.
	RedStepMeans []float64
	// Percentile summaries per color (milliseconds).
	GreenSummary, YellowSummary, RedSummary stats.DelaySummary
	NumFlows                                int
	Duration                                time.Duration
	// Events is the number of simulator events the run processed.
	Events uint64
	// Obs is the run's testbed metric registry.
	Obs *obs.Registry
}

// Figure8Config parameterizes the staircase workload.
type Figure8Config struct {
	// FlowsPerStep flows join every StepEvery (paper: 2 every 50 s).
	FlowsPerStep int
	Steps        int
	StepEvery    time.Duration
	Seed         int64
}

// DefaultFigure8Config mirrors the paper's joining pattern (2 flows every
// 50 s, five steps → 10 flows, 250 s).
func DefaultFigure8Config() Figure8Config {
	return Figure8Config{
		FlowsPerStep: 2,
		Steps:        5,
		StepEvery:    50 * time.Second,
		Seed:         1,
	}
}

// Figure8 regenerates the delay measurements of Fig. 8 and Fig. 9 (left).
func Figure8(cfg Figure8Config) (*Figure8Result, error) {
	n := cfg.FlowsPerStep * cfg.Steps
	duration := cfg.StepEvery * time.Duration(cfg.Steps)
	tcfg := DefaultTestbedConfig()
	tcfg.Seed = cfg.Seed
	tcfg.NumPELS = n
	tcfg.StartTimes = make([]time.Duration, n)
	for i := range tcfg.StartTimes {
		tcfg.StartTimes[i] = cfg.StepEvery * time.Duration(i/cfg.FlowsPerStep)
	}
	tb, err := NewTestbed(tcfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: figure 8: %w", err)
	}
	tb.RecordTraces()
	if err := tb.Run(duration); err != nil {
		return nil, fmt.Errorf("experiments: figure 8: %w", err)
	}
	res := &Figure8Result{
		Obs:           tb.Obs,
		Green:         tb.GreenDelay,
		Yellow:        tb.YellowDelay,
		Red:           tb.RedDelay,
		GreenMean:     tb.GreenDelay.Mean(),
		YellowMean:    tb.YellowDelay.Mean(),
		RedMean:       tb.RedDelay.Mean(),
		GreenSummary:  stats.SummarizeDelays(tb.GreenDelay.Values()),
		YellowSummary: stats.SummarizeDelays(tb.YellowDelay.Values()),
		RedSummary:    stats.SummarizeDelays(tb.RedDelay.Values()),
		NumFlows:      n,
		Duration:      duration,
		Events:        tb.Eng.Processed(),
	}
	for it := tb.RedDelay.Iter(0, tb.RedDelay.Len()); it.Next(); {
		if v := it.Sample().Value; v > res.RedMax {
			res.RedMax = v
		}
	}
	for step := 0; step < cfg.Steps; step++ {
		lo := cfg.StepEvery * time.Duration(step)
		res.RedStepMeans = append(res.RedStepMeans, tb.RedDelay.MeanBetween(lo, lo+cfg.StepEvery))
	}
	return res, nil
}

// FormatFigure8 summarizes the delay results.
func FormatFigure8(r *Figure8Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "staircase workload: %d flows over %v\n", r.NumFlows, r.Duration)
	fmt.Fprintf(&b, "mean delays: green=%.2f ms  yellow=%.2f ms  red=%.2f ms (max %.0f ms)\n",
		r.GreenMean, r.YellowMean, r.RedMean, r.RedMax)
	b.WriteString("red delay staircase (per 50s step): ")
	for i, v := range r.RedStepMeans {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%.0f ms", v)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%-8s %-10s %-10s %-10s %-10s %-10s\n", "color", "p50", "p90", "p99", "max", "samples")
	for _, row := range []struct {
		name string
		s    stats.DelaySummary
	}{
		{"green", r.GreenSummary},
		{"yellow", r.YellowSummary},
		{"red", r.RedSummary},
	} {
		fmt.Fprintf(&b, "%-8s %-10.1f %-10.1f %-10.1f %-10.0f %-10d\n",
			row.name, row.s.P50, row.s.P90, row.s.P99, row.s.Max, row.s.N)
	}
	return b.String()
}
