// Best-effort vs PELS: the paper's headline comparison (§6.5, Fig. 10).
//
// The fig10 registry entry runs two identical streaming scenarios on the
// Fig. 6 bar-bell at each of the paper's two loss levels: once with the
// PELS priority queues and once with a best-effort bottleneck that drops
// enhancement packets uniformly at random (base layer protected, as in the
// paper's baseline). The example prints the ~10 %
// level's per-frame useful data, utility, and the reconstructed Foreman
// PSNR for both, plus an ASCII strip chart of its PSNR curves.
//
// Run with: go run ./examples/besteffort-vs-pels
package main

import (
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
	"repro/internal/stats"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "besteffort-vs-pels:", err)
		os.Exit(1)
	}
}

func run() error {
	fig10, _ := experiments.Lookup("fig10")
	fmt.Println("running PELS and best-effort simulations at both of Fig. 10's loss levels...")
	res, err := fig10.Run(1)
	if err != nil {
		return err
	}
	// Level 0 is the ~10% loss operating point.
	m := func(k string) float64 { return res.Metrics["level0."+k] }

	fmt.Printf("\ntarget loss %.1f%%, measured: PELS %.1f%%, best-effort %.1f%% (%.0f frames)\n",
		100*m("target_loss"), 100*m("pels_loss"), 100*m("be_loss"), m("frames"))
	fmt.Printf("\n%-22s %-14s %-12s %-16s\n", "scheme", "useful/frame", "utility", "PSNR (mean)")
	fmt.Printf("%-22s %-14s %-12s %.2f dB\n", "base layer only", "-", "-", m("base_psnr"))
	fmt.Printf("%-22s %-14.1f %-12.3f %.2f dB (+%.1f%%)\n", "best-effort", m("be_useful"), m("be_utility"), m("be_psnr"), m("be_gain_pct"))
	fmt.Printf("%-22s %-14.1f %-12.3f %.2f dB (+%.1f%%)\n", "PELS", m("pels_useful"), m("pels_utility"), m("pels_psnr"), m("pels_gain_pct"))
	fmt.Printf("\nPSNR fluctuation: best-effort swings %.1f dB, PELS %.1f dB\n", m("be_swing_db"), m("pels_swing_db"))

	fmt.Println("\nper-frame PSNR (first 60 frames, '·' = base, 'b' = best-effort, 'P' = PELS):")
	fmt.Print(strip(res.Artifacts[0].Series, 60)) // level 0's base, best-effort and PELS curves
	fmt.Println("\nthe same packets cross the same bottleneck in both runs — only the drop")
	fmt.Println("*pattern* differs, and that alone is worth ~2-4x in useful video data.")
	return nil
}

// strip renders a crude ASCII chart of the base, best-effort and PELS PSNR
// series: one row per 2 dB bin, columns are frames.
func strip(series []*stats.TimeSeries, frames int) string {
	const lo, hi, step = 14.0, 50.0, 2.0
	rows := int((hi - lo) / step)
	grid := make([][]byte, rows)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", frames))
	}
	for s, ch := range []byte{'.', 'b', 'P'} {
		vs := series[s].Values()
		for f := 0; f < frames && f < len(vs); f++ {
			bin := int((vs[f] - lo) / step)
			if bin < 0 {
				bin = 0
			}
			if bin >= rows {
				bin = rows - 1
			}
			grid[rows-1-bin][f] = ch
		}
	}
	var b strings.Builder
	for i, row := range grid {
		dB := hi - float64(i)*step
		fmt.Fprintf(&b, "%5.0f |%s|\n", dB, string(row))
	}
	fmt.Fprintf(&b, "      +%s+\n", strings.Repeat("-", frames))
	return b.String()
}
