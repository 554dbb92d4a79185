package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/cc"
	"repro/internal/fgs"
	"repro/internal/packet"
	"repro/internal/stats"
)

// ControllerResult summarizes one congestion controller driving the full
// PELS stack — the paper's §5 claim is that PELS works with "any
// congestion control (including end-to-end methods such as AIMD, TFRC, or
// even TCP)"; this experiment runs every controller implemented in cc
// through the same scenario.
type ControllerResult struct {
	Name string
	// MeanUtility is flow 0's post-warmup utility: the PELS guarantee
	// that must hold under every controller.
	MeanUtility float64
	// RateMean and RateStdDev (kb/s) characterize the controller itself:
	// smooth (MKC, Kelly, TFRC) vs oscillating (AIMD, binomials).
	RateMean, RateStdDev float64
	// YellowLoss must stay ~0 regardless of controller.
	YellowLoss float64
	// Events is the number of simulator events the run processed.
	Events uint64
}

// ControllersConfig parameterizes the comparison.
type ControllersConfig struct {
	NumFlows int
	Duration time.Duration
	Seed     int64
}

// DefaultControllersConfig uses the ~7% loss operating point.
func DefaultControllersConfig() ControllersConfig {
	return ControllersConfig{NumFlows: 4, Duration: 90 * time.Second, Seed: 1}
}

// Controllers runs the PELS stack once per congestion controller.
func Controllers(cfg ControllersConfig) ([]ControllerResult, error) {
	factories := []struct {
		name string
		mk   func() cc.Controller
	}{
		{"mkc", nil}, // default
		{"kelly", func() cc.Controller { return cc.NewKelly(cc.DefaultKellyConfig()) }},
		{"aimd", func() cc.Controller { return cc.NewAIMD(cc.DefaultAIMDConfig()) }},
		{"tfrc", func() cc.Controller { return cc.NewTFRC(cc.DefaultTFRCConfig()) }},
		{"iiad", func() cc.Controller { return cc.NewBinomial(cc.IIADConfig()) }},
		{"sqrt", func() cc.Controller { return cc.NewBinomial(cc.SQRTConfig()) }},
	}
	results := make([]ControllerResult, len(factories))
	err := fanOut(len(factories), func(i int) error {
		f := factories[i]
		tc := DefaultTestbedConfig()
		tc.Seed = cfg.Seed
		tc.NumPELS = cfg.NumFlows
		if f.mk != nil {
			tc.Session.ControllerFactory = f.mk
		}
		tb, err := runTestbed(tc, cfg.Duration)
		if err != nil {
			return fmt.Errorf("experiments: controllers %s: %w", f.name, err)
		}
		rates := tb.RateSeries[0].ValuesAfter(cfg.Duration / 2)
		frames := tb.Sinks[0].Frames()
		if len(frames) > 20 {
			frames = frames[len(frames)/2:]
		}
		res := ControllerResult{
			Name:        f.name,
			MeanUtility: fgs.Aggregate(frames).MeanUtility,
			RateMean:    stats.Mean(rates),
			RateStdDev:  stats.StdDev(rates),
			Events:      tb.Eng.Processed(),
		}
		yl := tb.PELSQueues.PELS.ColorCounters(packet.Yellow)
		res.YellowLoss = yl.LossRate()
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// FormatControllers renders the comparison.
func FormatControllers(rows []ControllerResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-10s %-12s %-12s %-12s\n", "cc", "utility", "rate(kb/s)", "rate-stddev", "yellowloss")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %-10.3f %-12.1f %-12.1f %-12.4f\n",
			r.Name, r.MeanUtility, r.RateMean, r.RateStdDev, r.YellowLoss)
	}
	return b.String()
}
