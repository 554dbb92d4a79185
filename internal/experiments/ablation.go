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

// AblationResult summarizes one variant run of the PELS stack.
type AblationResult struct {
	Name string
	// MeanUtility is flow 0's mean per-frame utility after warmup.
	MeanUtility float64
	// YellowLoss and RedLoss are the bottleneck loss rates per color
	// (video-queue loss for the FIFO variant).
	YellowLoss, RedLoss float64
	// RateMean and RateStdDev describe flow 0's rate after warmup (kb/s).
	RateMean, RateStdDev float64
	// FeedbackLoss is the mean positive feedback loss after warmup.
	FeedbackLoss float64
	// Events is the number of simulator events the variant processed.
	Events uint64
}

// AblationConfig parameterizes the ablation suite.
type AblationConfig struct {
	NumFlows int
	Duration time.Duration
	Seed     int64
}

// DefaultAblationConfig uses the 4-flow (≈7% loss) operating point where
// every mechanism is active.
func DefaultAblationConfig() AblationConfig {
	return AblationConfig{NumFlows: 4, Duration: 90 * time.Second, Seed: 1}
}

// Ablations runs the design-choice variants called out in DESIGN.md §6:
//
//   - baseline: full PELS stack.
//   - fifo: colors share one uniform-drop FIFO (this *is* best-effort) —
//     shows the utility collapse without strict priority.
//   - no-dedup: epoch deduplication disabled — the MKC loop reacts to the
//     same feedback many times per interval and destabilizes.
//   - fixed-gamma-low / fixed-gamma-high: γ pinned below/above γ*,
//     showing yellow spill-over and wasted probes respectively.
//   - gamma-enh-share: γ applied to the enhancement only (the literal
//     Fig. 4 partitioning) — red loss overshoots p_thr.
//   - green-only-feedback: router stamps only green packets — feedback
//     ages by the base-layer packet spacing and convergence degrades.
func Ablations(cfg AblationConfig) ([]AblationResult, error) {
	type variant struct {
		name  string
		tweak func(*TestbedConfig)
	}
	variants := []variant{
		{"baseline", func(*TestbedConfig) {}},
		{"fifo", func(tc *TestbedConfig) { tc.BestEffort = true }},
		{"no-dedup", func(tc *TestbedConfig) {
			mkc := tc.Session.WithDefaults().MKC
			mkc.DedupEpochs = false
			tc.Session.MKC = mkc
		}},
		{"fixed-gamma-low", func(tc *TestbedConfig) {
			tc.Session.Gamma = fgs.GammaConfig{Sigma: 0, PThr: 0.75, Initial: 0.03, Min: 0.03, Max: 0.03, Clamp: true, AllowUnstable: true}
		}},
		{"fixed-gamma-high", func(tc *TestbedConfig) {
			tc.Session.Gamma = fgs.GammaConfig{Sigma: 0, PThr: 0.75, Initial: 0.4, Min: 0.4, Max: 0.4, Clamp: true, AllowUnstable: true}
		}},
		{"gamma-enh-share", func(tc *TestbedConfig) {
			tc.Session.RedShare = fgs.RedShareEnhancement
		}},
		{"green-only-feedback", func(tc *TestbedConfig) {
			tc.GreenOnlyFeedback = true
		}},
		{"two-priority", func(tc *TestbedConfig) {
			// A QBSS-like two-class scheme (§2.1): base layer protected,
			// the whole enhancement in one (yellow) class with no red
			// probes. Congestion then tail-drops yellow directly.
			tc.Session.Gamma = fgs.GammaConfig{Sigma: 0, PThr: 0.75, Initial: 0, Min: 0, Max: 0, Clamp: true, AllowUnstable: true}
		}},
		{"aimd-controller", func(tc *TestbedConfig) {
			// PELS is explicitly independent of the congestion controller
			// (paper §5): swapping MKC for AIMD keeps utility high — only
			// the rate gets the sawtooth.
			tc.Session.ControllerFactory = func() cc.Controller {
				return cc.NewAIMD(cc.DefaultAIMDConfig())
			}
		}},
	}

	results := make([]AblationResult, len(variants))
	err := fanOut(len(variants), func(i int) error {
		v := variants[i]
		tc := DefaultTestbedConfig()
		tc.Seed = cfg.Seed
		tc.NumPELS = cfg.NumFlows
		v.tweak(&tc)
		tb, err := runTestbed(tc, cfg.Duration)
		if err != nil {
			return fmt.Errorf("experiments: ablation %s: %w", v.name, err)
		}
		warm := cfg.Duration / 2
		res := AblationResult{
			Name:         v.name,
			FeedbackLoss: tb.MeasuredPELSLoss(warm),
			Events:       tb.Eng.Processed(),
		}
		res.MeanUtility = sinkTailUtility(tb, cfg)
		if tb.PELSQueues != nil {
			y := tb.PELSQueues.PELS.ColorCounters(packet.Yellow)
			r := tb.PELSQueues.PELS.ColorCounters(packet.Red)
			res.YellowLoss = y.LossRate()
			res.RedLoss = r.LossRate()
		} else {
			res.YellowLoss = tb.BEQueues.Video.LossRate()
			res.RedLoss = res.YellowLoss
		}
		rates := tb.RateSeries[0].ValuesAfter(warm)
		res.RateMean = stats.Mean(rates)
		res.RateStdDev = stats.StdDev(rates)
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// sinkTailUtility computes flow 0's mean utility over post-warmup frames.
func sinkTailUtility(tb *Testbed, cfg AblationConfig) float64 {
	frames := tb.Sinks[0].Frames()
	if len(frames) > 20 {
		frames = frames[len(frames)/2:]
	}
	return fgs.Aggregate(frames).MeanUtility
}

// FormatAblations renders the ablation table.
func FormatAblations(rows []AblationResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %-10s %-12s %-10s %-12s %-12s\n",
		"variant", "utility", "yellowloss", "redloss", "rate(kb/s)", "rate-stddev")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-22s %-10.3f %-12.4f %-10.3f %-12.1f %-12.1f\n",
			r.Name, r.MeanUtility, r.YellowLoss, r.RedLoss, r.RateMean, r.RateStdDev)
	}
	return b.String()
}
