package experiments

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/analysis"
)

// figure5At regenerates the open-loop γ trajectories of paper Fig. 5: the
// controller of eq. (4) iterated for 30 steps under constant heavy loss
// (p = 0.5, p_thr = 0.75, γ₀ = 0.05) with a stable gain (σ = 0.5) and an
// unstable one (σ = 3).
func figure5At(geometry) (Result, error) {
	const loss, pThr, gamma0, steps = 0.5, 0.75, 0.05, 30
	stable := analysis.GammaTrajectory(gamma0, 0.5, loss, pThr, steps)
	unstable := analysis.GammaTrajectory(gamma0, 3, loss, pThr, steps)
	m := map[string]float64{
		"stable_final":       stable[steps],
		"unstable_final_abs": math.Abs(unstable[steps]),
		"gamma_fixed_point":  analysis.GammaFixedPoint(loss, pThr),
	}
	var b strings.Builder
	fmt.Fprintf(&b, "p=%g, p_thr=%g, gamma*=%.4f\n", loss, pThr, m["gamma_fixed_point"])
	fmt.Fprintf(&b, "%-5s %-14s %-14s\n", "k", "sigma=0.5", "sigma=3")
	for k := range stable {
		fmt.Fprintf(&b, "%-5d %-14.4f %-14.4g\n", k, stable[k], unstable[k])
	}
	return Result{Output: b.String(), Metrics: m}, nil
}
