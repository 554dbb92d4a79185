// Package asciiplot renders (x, y) series as terminal charts. It exists so
// the repository's whole workflow — simulate, export, inspect — works
// without any external tooling: cmd/pelsplot feeds it the CSV files that
// pelsbench and pelssim write.
package asciiplot

import (
	"fmt"
	"math"
	"strings"
)

// Series is one named line on a chart.
type Series struct {
	Name string
	X, Y []float64
}

// Config sizes and labels a chart.
type Config struct {
	Width, Height int
	Title         string
	XLabel        string
}

// DefaultConfig returns an 72×20 chart.
func DefaultConfig() Config {
	return Config{Width: 72, Height: 20}
}

// markers assigns one rune per series, cycling.
var markers = []rune{'*', 'o', '+', 'x', '#', '@'}

// Render draws the series onto a shared axis grid and returns the chart as
// a string. Series with no finite points are skipped; an empty chart
// renders a note instead of axes.
func Render(cfg Config, series ...Series) string {
	if cfg.Width <= 10 {
		cfg.Width = 72
	}
	if cfg.Height <= 4 {
		cfg.Height = 20
	}

	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	any := false
	for _, s := range series {
		for i := range s.X {
			x, y := s.X[i], value(s.Y, i)
			if !finite(x) || !finite(y) {
				continue
			}
			any = true
			minX, maxX = math.Min(minX, x), math.Max(maxX, x)
			minY, maxY = math.Min(minY, y), math.Max(maxY, y)
		}
	}
	if !any {
		return "(no data)\n"
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}

	grid := make([][]rune, cfg.Height)
	for r := range grid {
		grid[r] = []rune(strings.Repeat(" ", cfg.Width))
	}
	for si, s := range series {
		m := markers[si%len(markers)]
		for i := range s.X {
			x, y := s.X[i], value(s.Y, i)
			if !finite(x) || !finite(y) {
				continue
			}
			col := int((x - minX) / (maxX - minX) * float64(cfg.Width-1))
			row := cfg.Height - 1 - int((y-minY)/(maxY-minY)*float64(cfg.Height-1))
			grid[row][col] = m
		}
	}

	var b strings.Builder
	if cfg.Title != "" {
		fmt.Fprintf(&b, "%s\n", cfg.Title)
	}
	for r, row := range grid {
		yVal := maxY - (maxY-minY)*float64(r)/float64(cfg.Height-1)
		fmt.Fprintf(&b, "%10.3g |%s\n", yVal, string(row))
	}
	fmt.Fprintf(&b, "%10s +%s\n", "", strings.Repeat("-", cfg.Width))
	fmt.Fprintf(&b, "%10s  %-10.4g%s%10.4g\n", "",
		minX, strings.Repeat(" ", max(0, cfg.Width-20)), maxX)
	if cfg.XLabel != "" {
		fmt.Fprintf(&b, "%10s  %s\n", "", center(cfg.XLabel, cfg.Width))
	}
	legend := make([]string, 0, len(series))
	for si, s := range series {
		if s.Name == "" {
			continue
		}
		legend = append(legend, fmt.Sprintf("%c %s", markers[si%len(markers)], s.Name))
	}
	if len(legend) > 0 {
		fmt.Fprintf(&b, "%10s  %s\n", "", strings.Join(legend, "   "))
	}
	return b.String()
}

func value(ys []float64, i int) float64 {
	if i >= len(ys) {
		return math.NaN()
	}
	return ys[i]
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func center(s string, width int) string {
	if len(s) >= width {
		return s
	}
	pad := (width - len(s)) / 2
	return strings.Repeat(" ", pad) + s
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
