package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/obs"
	"repro/internal/stats"
)

// Figure7Run is one curve pair of paper Fig. 7: the evolution of γ(k) for
// one load level (left panel) and the corresponding red packet loss rate
// (right panel).
type Figure7Run struct {
	NumFlows int
	// Gamma is flow 0's γ time series; RedLoss the bottleneck red queue's
	// per-interval drop rate.
	Gamma, RedLoss *stats.TimeSeries
	// MeasuredLoss is the mean (positive) feedback loss after warmup;
	// PredictedLoss is the closed-form p* = Nα/(βC+Nα).
	MeasuredLoss, PredictedLoss float64
	// GammaTail is γ's mean over the final quarter of the run;
	// GammaStar = p*/p_thr the predicted stationary point.
	GammaTail, GammaStar float64
	// RedLossTail is the red loss mean over the final half of the run;
	// the target is p_thr.
	RedLossTail, PThr float64
	// Events is the number of simulator events this run processed.
	Events uint64
	// Obs is the run's testbed metric registry.
	Obs *obs.Registry
}

// Figure7Config parameterizes the experiment.
type Figure7Config struct {
	// FlowCounts selects the load levels. The paper shows two average
	// loss levels, ~7% and ~14%, which the default testbed produces with
	// 4 and 8 PELS flows respectively.
	FlowCounts []int
	Duration   time.Duration
	Seed       int64
}

// DefaultFigure7Config mirrors the paper's two loss levels.
func DefaultFigure7Config() Figure7Config {
	return Figure7Config{
		FlowCounts: []int{4, 8},
		Duration:   120 * time.Second,
		Seed:       1,
	}
}

// Figure7 regenerates both panels of paper Fig. 7 by running the full
// PELS stack at each load level.
func Figure7(cfg Figure7Config) ([]Figure7Run, error) {
	runs := make([]Figure7Run, len(cfg.FlowCounts))
	err := fanOut(len(runs), func(i int) error {
		n := cfg.FlowCounts[i]
		tcfg := DefaultTestbedConfig()
		tcfg.NumPELS = n
		tcfg.Seed = cfg.Seed
		tb, err := NewTestbed(tcfg)
		if err != nil {
			return fmt.Errorf("experiments: figure 7 (n=%d): %w", n, err)
		}
		// Fig. 7 plots γ; the delay series ride along in Obs, which
		// fig7_obs.csv exports.
		tb.RecordTraces()
		if err := tb.Run(cfg.Duration); err != nil {
			return fmt.Errorf("experiments: figure 7 (n=%d): %w", n, err)
		}
		scfg := tcfg.Session.WithDefaults()
		pthr := scfg.Gamma.PThr
		predicted := scfg.MKC.StationaryLoss(tcfg.PELSCapacity(), n)
		runs[i] = Figure7Run{
			NumFlows:      n,
			Gamma:         tb.GammaSeries[0],
			RedLoss:       tb.RedLossSeries,
			MeasuredLoss:  tb.MeasuredPELSLoss(cfg.Duration / 2),
			PredictedLoss: predicted,
			GammaTail:     tb.GammaSeries[0].MeanAfter(cfg.Duration * 3 / 4),
			GammaStar:     analysis.GammaFixedPoint(predicted, pthr),
			RedLossTail:   tb.RedLossSeries.MeanAfter(cfg.Duration / 2),
			PThr:          pthr,
			Events:        tb.Eng.Processed(),
			Obs:           tb.Obs,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return runs, nil
}

// FormatFigure7 summarizes the runs.
func FormatFigure7(runs []Figure7Run) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-12s %-12s %-12s %-12s %-12s %-8s\n",
		"flows", "loss(sim)", "loss(model)", "gamma(sim)", "gamma*", "redloss", "p_thr")
	for _, r := range runs {
		fmt.Fprintf(&b, "%-8d %-12.4f %-12.4f %-12.4f %-12.4f %-12.4f %-8.2f\n",
			r.NumFlows, r.MeasuredLoss, r.PredictedLoss, r.GammaTail, r.GammaStar, r.RedLossTail, r.PThr)
	}
	return b.String()
}
