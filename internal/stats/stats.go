// Package stats provides the measurement utilities shared by experiments:
// time series of (time, value) samples, running mean/variance (Welford),
// percentile summaries, and CSV export of the series that back the paper's
// figures.
package stats

import (
	"math"
	"sort"
	"time"
)

// Sample is one (time, value) observation.
type Sample struct {
	At    time.Duration
	Value float64
}

// chunkLen is the number of samples per storage chunk: 8 KiB of samples, a
// Go allocator size class. It is a power of two so an index splits into
// (chunk, offset) with a shift and a mask.
const chunkLen = 512

type chunk [chunkLen]Sample

// TimeSeries accumulates samples in arrival order. Storage is append-only
// fixed-size chunks: growing the series allocates one chunk and never
// copies a sample already stored, so a long series costs its own size
// rather than the garbage of a doubling slice. The samples are therefore
// not contiguous; readers walk them by index (Len, Sample, Search).
//
// Search, MeanAfter and MeanBetween assume samples were added in
// non-decreasing time order, which is what recording at the clock gives.
type TimeSeries struct {
	Name   string
	chunks []*chunk
	n      int
}

// NewTimeSeries returns an empty named series.
func NewTimeSeries(name string) *TimeSeries {
	return &TimeSeries{Name: name}
}

// Add appends a sample.
func (ts *TimeSeries) Add(at time.Duration, v float64) {
	off := ts.n & (chunkLen - 1)
	if off == 0 {
		ts.chunks = append(ts.chunks, new(chunk))
	}
	ts.chunks[len(ts.chunks)-1][off] = Sample{At: at, Value: v}
	ts.n++
}

// Len returns the number of samples.
func (ts *TimeSeries) Len() int { return ts.n }

// Sample returns the i-th sample, 0 <= i < Len().
func (ts *TimeSeries) Sample(i int) Sample {
	return ts.chunks[i/chunkLen][i&(chunkLen-1)]
}

// Search returns the index of the first sample at or after t (Len() if
// there is none): the samples from Search(t) on are the series after t.
func (ts *TimeSeries) Search(t time.Duration) int {
	return sort.Search(ts.n, func(i int) bool { return ts.Sample(i).At >= t })
}

// Values returns a copy of the sample values in order.
func (ts *TimeSeries) Values() []float64 { return ts.valuesFrom(0) }

// ValuesAfter returns a copy of the values of samples at or after t.
func (ts *TimeSeries) ValuesAfter(t time.Duration) []float64 {
	return ts.valuesFrom(ts.Search(t))
}

func (ts *TimeSeries) valuesFrom(i int) []float64 {
	out := make([]float64, 0, ts.n-i)
	for ; i < ts.n; i++ {
		out = append(out, ts.Sample(i).Value)
	}
	return out
}

// Snapshot returns an independent series with the same samples. Full
// chunks are immutable once written, so the copy shares them and
// duplicates only the chunk still being filled.
func (ts *TimeSeries) Snapshot() *TimeSeries {
	out := &TimeSeries{Name: ts.Name, n: ts.n}
	out.chunks = append(out.chunks, ts.chunks...)
	if ts.n&(chunkLen-1) != 0 {
		tail := *ts.chunks[len(ts.chunks)-1]
		out.chunks[len(out.chunks)-1] = &tail
	}
	return out
}

// Last returns the most recent sample value, or 0 if empty.
func (ts *TimeSeries) Last() float64 {
	if ts.n == 0 {
		return 0
	}
	return ts.Sample(ts.n - 1).Value
}

// Mean returns the mean value of all samples.
func (ts *TimeSeries) Mean() float64 { return ts.meanOf(0, ts.n) }

// MeanAfter returns the mean value of samples at or after t.
func (ts *TimeSeries) MeanAfter(t time.Duration) float64 {
	return ts.meanOf(ts.Search(t), ts.n)
}

// MeanBetween returns the mean value of samples in [lo, hi).
func (ts *TimeSeries) MeanBetween(lo, hi time.Duration) float64 {
	return ts.meanOf(ts.Search(lo), ts.Search(hi))
}

// meanOf averages samples [i, j) in order; 0 for an empty range.
func (ts *TimeSeries) meanOf(i, j int) float64 {
	if i >= j {
		return 0
	}
	sum := 0.0
	for k := i; k < j; k++ {
		sum += ts.Sample(k).Value
	}
	return sum / float64(j-i)
}

// Mean returns the arithmetic mean of vs (0 for empty input).
func Mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// StdDev returns the sample standard deviation of vs.
func StdDev(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	m := Mean(vs)
	sum := 0.0
	for _, v := range vs {
		d := v - m
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(vs)-1))
}

// Percentile returns the q-th percentile (q in [0,100]) of vs using linear
// interpolation. It returns 0 for empty input.
func Percentile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), vs...)
	sort.Float64s(sorted)
	return percentileSorted(sorted, q)
}

// percentileSorted is Percentile over input already in ascending order.
func percentileSorted(sorted []float64, q float64) float64 {
	if q <= 0 {
		return sorted[0]
	}
	if q >= 100 {
		return sorted[len(sorted)-1]
	}
	pos := q / 100 * float64(len(sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Welford maintains running mean and variance without storing samples.
// The zero value is ready to use.
type Welford struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one observation.
func (w *Welford) Add(v float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = v, v
	} else {
		if v < w.min {
			w.min = v
		}
		if v > w.max {
			w.max = v
		}
	}
	d := v - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (v - w.mean)
}

// N returns the observation count.
func (w *Welford) N() int64 { return w.n }

// Mean returns the running mean.
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the sample variance.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// Min returns the smallest observation (0 if none).
func (w *Welford) Min() float64 { return w.min }

// Max returns the largest observation (0 if none).
func (w *Welford) Max() float64 { return w.max }
