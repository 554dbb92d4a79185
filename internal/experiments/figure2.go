package experiments

import (
	"fmt"
	"strings"

	"repro/internal/analysis"
)

// Figure2Row is one point of paper Fig. 2: useful packets per frame (left)
// and utility (right) as functions of the frame size H at fixed loss p,
// for best-effort (uniform random drops) and optimal (preferential drops)
// streaming.
type Figure2Row struct {
	H                 int
	BestEffortUseful  float64
	OptimalUseful     float64
	BestEffortUtility float64
	OptimalUtility    float64
}

// Figure2Config parameterizes the sweep.
type Figure2Config struct {
	Loss  float64
	Sizes []int
}

// DefaultFigure2Config mirrors the paper (p = 0.1, H up to 1000).
func DefaultFigure2Config() Figure2Config {
	sizes := []int{1, 2, 5, 10, 20, 50, 100, 200, 300, 400, 500, 600, 700, 800, 900, 1000}
	return Figure2Config{Loss: 0.1, Sizes: sizes}
}

// Figure2 regenerates both panels of paper Fig. 2 from the closed forms.
// Optimal utility is identically 1; best-effort utility decays as 1/(Hp)
// for large H, and best-effort useful packets saturate at (1−p)/p.
func Figure2(cfg Figure2Config) []Figure2Row {
	rows := make([]Figure2Row, 0, len(cfg.Sizes))
	for _, h := range cfg.Sizes {
		rows = append(rows, Figure2Row{
			H:                 h,
			BestEffortUseful:  analysis.ExpectedUsefulFixedH(cfg.Loss, h),
			OptimalUseful:     analysis.OptimalUseful(cfg.Loss, h),
			BestEffortUtility: analysis.BestEffortUtility(cfg.Loss, h),
			OptimalUtility:    1,
		})
	}
	return rows
}

// FormatFigure2 renders the sweep as aligned columns.
func FormatFigure2(cfg Figure2Config, rows []Figure2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "p = %g, best-effort saturation (1-p)/p = %.2f\n", cfg.Loss, (1-cfg.Loss)/cfg.Loss)
	fmt.Fprintf(&b, "%-6s %-14s %-14s %-14s %-14s\n",
		"H", "BE useful", "opt useful", "BE utility", "opt utility")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6d %-14.2f %-14.2f %-14.4f %-14.1f\n",
			r.H, r.BestEffortUseful, r.OptimalUseful, r.BestEffortUtility, r.OptimalUtility)
	}
	return b.String()
}
