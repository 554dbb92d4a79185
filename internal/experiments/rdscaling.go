package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/fgs"
	"repro/internal/stats"
	"repro/internal/video"
)

// RDScalingResult compares constant rate scaling (the paper's x_i =
// r·interval) against complexity-aware R-D scaling — the extension the
// paper points to in §6.5 ("quality fluctuation ... can be further reduced
// using sophisticated R-D scaling methods [5], not used in this work").
// Both runs use the same congestion level; the R-D-aware source gives
// high-complexity frames a larger byte budget, flattening the PSNR curve
// without changing the average rate.
type RDScalingResult struct {
	// PSNR curves per scaler.
	ConstantPSNR, RDPSNR []float64
	// Mean and standard deviation of each curve.
	ConstantMean, RDMean     float64
	ConstantStdDev, RDStdDev float64
	// Swing is max−min PSNR after warmup.
	ConstantSwing, RDSwing float64
	// Rates confirm conservation: both scalers must send at the same
	// long-run rate (kb/s).
	ConstantRate, RDRate float64
	Frames               int
	// Events is the number of simulator events processed across both
	// scaler runs.
	Events uint64
}

// RDScalingConfig parameterizes the comparison.
type RDScalingConfig struct {
	Level        Figure10Level
	Duration     time.Duration
	WarmupFrames int
	EvalFrames   int
	Seed         int64
}

// DefaultRDScalingConfig uses the Fig. 10 ~10% loss operating point.
func DefaultRDScalingConfig() RDScalingConfig {
	return RDScalingConfig{
		Level:        DefaultFigure10Config().Levels[0],
		Duration:     150 * time.Second,
		WarmupFrames: 60,
		EvalFrames:   200,
		Seed:         1,
	}
}

// RDScaling runs the comparison.
func RDScaling(cfg RDScalingConfig) (*RDScalingResult, error) {
	f10 := Figure10Config{
		Levels:       []Figure10Level{cfg.Level},
		Duration:     cfg.Duration,
		WarmupFrames: cfg.WarmupFrames,
		EvalFrames:   cfg.EvalFrames,
		Seed:         cfg.Seed,
	}

	// The RD scaler needs the complexity of the frames the source will
	// actually emit; the Foreman trace provides it (wrapping like the
	// PSNR reconstruction does). The warmup offset is irrelevant to the
	// oracle because the trace is periodic.
	trace := video.ForemanTrace(300)
	scalers := []struct {
		name      string
		newScaler func() fgs.Scaler
	}{
		{"constant", nil},
		{"rd-aware", func() fgs.Scaler {
			return fgs.NewRDScaler(func(frame int) float64 { return trace.Frame(frame).Complexity })
		}},
	}
	outcomes := make([]struct {
		psnr   []float64
		rate   float64
		events uint64
	}, len(scalers))
	err := fanOut(len(scalers), func(i int) error {
		tcfg := figure10Testbed(f10, cfg.Level, false)
		tcfg.Session.NewScaler = scalers[i].newScaler
		tb, err := runTestbed(tcfg, cfg.Duration)
		if err != nil {
			return fmt.Errorf("experiments: rd-scaling %s: %w", scalers[i].name, err)
		}
		frames := tb.Sinks[0].Frames()
		if len(frames) > cfg.WarmupFrames {
			frames = frames[cfg.WarmupFrames:]
		}
		if len(frames) > 1 {
			frames = frames[:len(frames)-1]
		}
		if cfg.EvalFrames > 0 && len(frames) > cfg.EvalFrames {
			frames = frames[:cfg.EvalFrames]
		}
		spec := tcfg.Session.WithDefaults().Frame
		model := video.DefaultRDModel()
		model.MaxEnhBytes = spec.MaxEnhBytes()
		out := &outcomes[i]
		out.psnr, _, _ = framePSNR(trace, model, spec, frames)
		out.rate = tb.RateSeries[0].MeanAfter(cfg.Duration / 2)
		out.events = tb.Eng.Processed()
		return nil
	})
	if err != nil {
		return nil, err
	}
	constant, rd := outcomes[0], outcomes[1]
	constPSNR, rdPSNR := constant.psnr, rd.psnr

	n := len(constPSNR)
	if len(rdPSNR) < n {
		n = len(rdPSNR)
	}
	constPSNR, rdPSNR = constPSNR[:n], rdPSNR[:n]
	res := &RDScalingResult{
		ConstantPSNR:   constPSNR,
		RDPSNR:         rdPSNR,
		ConstantMean:   stats.Mean(constPSNR),
		RDMean:         stats.Mean(rdPSNR),
		ConstantStdDev: stats.StdDev(constPSNR),
		RDStdDev:       stats.StdDev(rdPSNR),
		ConstantSwing:  swing(constPSNR),
		RDSwing:        swing(rdPSNR),
		ConstantRate:   constant.rate,
		RDRate:         rd.rate,
		Frames:         n,
		Events:         constant.events + rd.events,
	}
	return res, nil
}

// FormatRDScaling summarizes the comparison.
func FormatRDScaling(r *RDScalingResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %-12s %-12s %-12s %-12s\n", "scaler", "mean PSNR", "stddev", "swing", "rate(kb/s)")
	fmt.Fprintf(&b, "%-18s %-12.2f %-12.2f %-12.1f %-12.0f\n", "constant (paper)", r.ConstantMean, r.ConstantStdDev, r.ConstantSwing, r.ConstantRate)
	fmt.Fprintf(&b, "%-18s %-12.2f %-12.2f %-12.1f %-12.0f\n", "rd-aware [5]", r.RDMean, r.RDStdDev, r.RDSwing, r.RDRate)
	return b.String()
}
