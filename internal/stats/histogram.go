package stats

import "sort"

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
