package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Histogram is a fixed-bin histogram over a closed value range; values
// outside the range are clamped into the edge bins, so every observation
// is counted. It backs the delay-distribution reporting of the Fig. 8/9
// experiments.
type Histogram struct {
	lo, hi float64
	bins   []int64
	n      int64
	under  int64 // observations clamped into the first bin
	over   int64 // observations clamped into the last bin
}

// NewHistogram creates a histogram of nbins equal-width bins over [lo, hi].
func NewHistogram(lo, hi float64, nbins int) (*Histogram, error) {
	if nbins <= 0 {
		return nil, fmt.Errorf("stats: histogram needs at least one bin, got %d", nbins)
	}
	if !(lo < hi) {
		return nil, fmt.Errorf("stats: histogram range [%v, %v] invalid", lo, hi)
	}
	return &Histogram{lo: lo, hi: hi, bins: make([]int64, nbins)}, nil
}

// MustNewHistogram is NewHistogram that panics on bad configuration.
func MustNewHistogram(lo, hi float64, nbins int) *Histogram {
	h, err := NewHistogram(lo, hi, nbins)
	if err != nil {
		panic(err)
	}
	return h
}

// Add records one observation.
func (h *Histogram) Add(v float64) {
	if math.IsNaN(v) {
		return
	}
	idx := int(float64(len(h.bins)) * (v - h.lo) / (h.hi - h.lo))
	if idx < 0 {
		idx = 0
		h.under++
	}
	if idx >= len(h.bins) {
		idx = len(h.bins) - 1
		h.over++
	}
	h.bins[idx]++
	h.n++
}

// N returns the number of observations.
func (h *Histogram) N() int64 { return h.n }

// Clamped returns how many observations fell outside [lo, hi) and were
// counted in the edge bins.
func (h *Histogram) Clamped() (under, over int64) { return h.under, h.over }

// Bin returns the count in bin i.
func (h *Histogram) Bin(i int) int64 { return h.bins[i] }

// BinWidth returns the width of each bin.
func (h *Histogram) BinWidth() float64 { return (h.hi - h.lo) / float64(len(h.bins)) }

// Quantile returns an estimate of the q-th quantile (q in [0,1]) using
// linear interpolation within the containing bin.
func (h *Histogram) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(h.n)
	cum := 0.0
	for i, c := range h.bins {
		next := cum + float64(c)
		if next >= target && c > 0 {
			frac := 0.0
			if c > 0 {
				frac = (target - cum) / float64(c)
			}
			return h.lo + (float64(i)+frac)*h.BinWidth()
		}
		cum = next
	}
	return h.hi
}

// CDF returns the empirical cumulative probability at value v.
func (h *Histogram) CDF(v float64) float64 {
	if h.n == 0 {
		return 0
	}
	if v <= h.lo {
		return 0
	}
	if v >= h.hi {
		return 1
	}
	pos := float64(len(h.bins)) * (v - h.lo) / (h.hi - h.lo)
	full := int(pos)
	cum := int64(0)
	for i := 0; i < full; i++ {
		cum += h.bins[i]
	}
	frac := pos - float64(full)
	partial := float64(h.bins[full]) * frac
	return (float64(cum) + partial) / float64(h.n)
}

// String renders a compact ASCII bar chart (one row per non-empty bin).
func (h *Histogram) String() string {
	var b strings.Builder
	max := int64(0)
	for _, c := range h.bins {
		if c > max {
			max = c
		}
	}
	if max == 0 {
		return "(empty histogram)"
	}
	for i, c := range h.bins {
		if c == 0 {
			continue
		}
		width := int(40 * c / max)
		fmt.Fprintf(&b, "%10.2f |%s %d\n", h.lo+float64(i)*h.BinWidth(), strings.Repeat("#", width), c)
	}
	return b.String()
}

// DelaySummary condenses a slice of delay samples (any unit) into the
// percentiles experiments report.
type DelaySummary struct {
	N                  int
	Mean               float64
	P50, P90, P99, Max float64
}

// SummarizeDelays computes a DelaySummary from raw samples. It sorts one
// copy of vs and reads every percentile from it.
func SummarizeDelays(vs []float64) DelaySummary {
	s := DelaySummary{N: len(vs)}
	if len(vs) == 0 {
		return s
	}
	sorted := append([]float64(nil), vs...)
	sort.Float64s(sorted)
	s.Mean = Mean(sorted)
	s.P50 = percentileSorted(sorted, 50)
	s.P90 = percentileSorted(sorted, 90)
	s.P99 = percentileSorted(sorted, 99)
	s.Max = sorted[len(sorted)-1]
	return s
}
