package experiments

import (
	"fmt"
	"strings"

	"repro/internal/analysis"
)

// figure2At regenerates both panels of paper Fig. 2 from the closed forms:
// useful packets per frame (left) and utility (right) as functions of the
// frame size H at p = 0.1, for best-effort (uniform random drops) and
// optimal (preferential drops) streaming. Optimal utility is identically
// 1; best-effort utility decays as 1/(Hp) for large H, and best-effort
// useful packets saturate at (1−p)/p.
func figure2At(geometry) (Result, error) {
	p := 0.1
	m := make(map[string]float64)
	var b strings.Builder
	fmt.Fprintf(&b, "p = %g, best-effort saturation (1-p)/p = %.2f\n", p, (1-p)/p)
	fmt.Fprintf(&b, "%-6s %-14s %-14s %-14s %-14s\n",
		"H", "BE useful", "opt useful", "BE utility", "opt utility")
	for _, h := range []int{1, 2, 5, 10, 20, 50, 100, 200, 300, 400, 500, 600, 700, 800, 900, 1000} {
		k := fmt.Sprintf("_H%d", h)
		m["be_useful"+k] = analysis.ExpectedUsefulFixedH(p, h)
		m["opt_useful"+k] = analysis.OptimalUseful(p, h)
		m["be_utility"+k] = analysis.BestEffortUtility(p, h)
		m["opt_utility"+k] = 1
		fmt.Fprintf(&b, "%-6d %-14.2f %-14.2f %-14.4f %-14.1f\n",
			h, m["be_useful"+k], m["opt_useful"+k], m["be_utility"+k], m["opt_utility"+k])
	}
	return Result{Output: b.String(), Metrics: m}, nil
}
