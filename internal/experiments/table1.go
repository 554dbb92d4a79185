package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/analysis"
)

// table1At regenerates paper Table 1: the expected number of useful
// packets in a frame of H = 100 under Bernoulli loss p ∈ {1e-4, 0.01, 0.1},
// Monte-Carlo simulation over 200,000 frames against the closed form of
// eq. (2), beside the mean number of packets received per frame (the paper
// quotes it in the text: 99 received vs 62 useful at p = 0.01).
func table1At(g geometry) (Result, error) {
	const h, frames = 100, 200000
	rng := rand.New(rand.NewSource(g.seed))
	m := make(map[string]float64)
	var b strings.Builder
	fmt.Fprintf(&b, "%-5s %-12s %-12s %-12s %-12s\n", "H", "loss p", "simulations", "model (2)", "received")
	for _, p := range []float64{0.0001, 0.01, 0.1} {
		k := fmt.Sprintf("_p%g", p)
		m["useful_sim"+k] = analysis.MonteCarloUseful(p, h, frames, rng)
		m["useful_model"+k] = analysis.ExpectedUsefulFixedH(p, h)
		m["received"+k] = analysis.MonteCarloReceived(p, h, frames/10, rng)
		fmt.Fprintf(&b, "%-5d %-12g %-12.2f %-12.2f %-12.2f\n", h, p, m["useful_sim"+k], m["useful_model"+k], m["received"+k])
	}
	return Result{Output: b.String(), Metrics: m}, nil
}
