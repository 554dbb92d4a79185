package experiments

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/analysis"
)

// Figure5Result holds the open-loop γ trajectories of paper Fig. 5: the
// controller of eq. (4) iterated under constant heavy loss for a stable
// gain (σ=0.5) and an unstable one (σ=3).
type Figure5Result struct {
	Loss       float64
	PThr       float64
	Gamma0     float64
	Steps      int
	Stable     []float64 // σ = 0.5
	Unstable   []float64 // σ = 3
	FixedPoint float64
}

// Figure5Config parameterizes the iteration.
type Figure5Config struct {
	Loss, PThr, Gamma0         float64
	StableSigma, UnstableSigma float64
	Steps                      int
}

// DefaultFigure5Config mirrors the paper (p=0.5, p_thr=0.75, σ ∈ {0.5, 3}).
func DefaultFigure5Config() Figure5Config {
	return Figure5Config{
		Loss:          0.5,
		PThr:          0.75,
		Gamma0:        0.05,
		StableSigma:   0.5,
		UnstableSigma: 3,
		Steps:         30,
	}
}

// Figure5 regenerates paper Fig. 5.
func Figure5(cfg Figure5Config) Figure5Result {
	return Figure5Result{
		Loss:       cfg.Loss,
		PThr:       cfg.PThr,
		Gamma0:     cfg.Gamma0,
		Steps:      cfg.Steps,
		Stable:     analysis.GammaTrajectory(cfg.Gamma0, cfg.StableSigma, cfg.Loss, cfg.PThr, cfg.Steps),
		Unstable:   analysis.GammaTrajectory(cfg.Gamma0, cfg.UnstableSigma, cfg.Loss, cfg.PThr, cfg.Steps),
		FixedPoint: analysis.GammaFixedPoint(cfg.Loss, cfg.PThr),
	}
}

// FormatFigure5 renders both trajectories side by side.
func FormatFigure5(r Figure5Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "p=%g, p_thr=%g, gamma*=%.4f\n", r.Loss, r.PThr, r.FixedPoint)
	fmt.Fprintf(&b, "%-5s %-14s %-14s\n", "k", "sigma=0.5", "sigma=3")
	for k := 0; k < len(r.Stable) && k < len(r.Unstable); k++ {
		fmt.Fprintf(&b, "%-5d %-14.4f %-14.4g\n", k, r.Stable[k], r.Unstable[k])
	}
	return b.String()
}

func figure5At(geometry) (Result, error) {
	r := Figure5(DefaultFigure5Config())
	return Result{Output: FormatFigure5(r), Metrics: map[string]float64{
		"stable_final":       r.Stable[len(r.Stable)-1],
		"unstable_final_abs": math.Abs(r.Unstable[len(r.Unstable)-1]),
		"gamma_fixed_point":  r.FixedPoint,
	}}, nil
}
