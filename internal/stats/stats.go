// Package stats provides the measurement utilities shared by experiments:
// time series of (time, value) samples, mean and standard deviation,
// percentile summaries, and CSV export of the series that back the paper's
// figures.
package stats

import (
	"encoding/binary"
	"math"
	"sort"
	"time"
)

// Sample is one (time, value) observation.
type Sample struct {
	At    time.Duration
	Value float64
}

const (
	// chunkLen is the number of samples per storage chunk; its value
	// column is 4 KiB, a Go allocator size class. It is a power of two so
	// an index splits into (chunk, offset) with a shift and a mask.
	chunkLen = 512
	// markEvery samples share one checkpoint, so reaching any sample from
	// its checkpoint decodes at most markEvery-1 time deltas.
	markEvery = 64
	// timeBytes is a new chunk's time column capacity: four bytes a delta,
	// which holds every gap under 134 ms (a 30 ms feedback series fits).
	// Wider gaps grow the column by append.
	timeBytes = 4 * chunkLen
)

// chunk stores chunkLen consecutive samples. Values are a raw float64
// column. Times are checkpointed: the sample at each multiple of markEvery
// has its absolute time in marks, and every other sample is a zigzag
// varint delta from its predecessor in times, starting at the checkpoint's
// offs entry.
type chunk struct {
	vals  *[chunkLen]float64
	marks [chunkLen / markEvery]time.Duration
	offs  [chunkLen / markEvery]uint16
	times []byte
}

// TimeSeries accumulates samples in arrival order. Storage is append-only
// chunks: growing the series allocates one chunk and never copies a sample
// already stored, so a long series costs its own size rather than the
// garbage of a doubling slice. A sample costs its 8-byte value plus its
// time delta, 4 bytes at the gaps the simulator records, so about 12.3
// bytes with the chunk's overhead. Times are lossless: deltas wrap like
// int64 arithmetic, so any sequence of times round-trips, in any order.
// Sequential readers walk the series with Iter; Sample is random access.
//
// Search, MeanAfter and MeanBetween assume samples were added in
// non-decreasing time order, which is what recording at the clock gives.
type TimeSeries struct {
	Name   string
	chunks []*chunk
	n      int
	last   time.Duration // time of sample n-1, the base of the next delta
}

// NewTimeSeries returns an empty named series.
func NewTimeSeries(name string) *TimeSeries {
	return &TimeSeries{Name: name}
}

// Add appends a sample.
func (ts *TimeSeries) Add(at time.Duration, v float64) {
	off := ts.n & (chunkLen - 1)
	if off == 0 {
		ts.chunks = append(ts.chunks, &chunk{vals: new([chunkLen]float64), times: make([]byte, 0, timeBytes)})
	}
	c := ts.chunks[len(ts.chunks)-1]
	if m := off / markEvery; off%markEvery == 0 {
		c.marks[m], c.offs[m] = at, uint16(len(c.times))
	} else {
		c.times = binary.AppendVarint(c.times, int64(at-ts.last))
	}
	c.vals[off] = v
	ts.last = at
	ts.n++
}

// Len returns the number of samples.
func (ts *TimeSeries) Len() int { return ts.n }

// Sample returns the i-th sample, 0 <= i < Len().
func (ts *TimeSeries) Sample(i int) Sample {
	it := ts.Iter(i, i+1)
	it.Next()
	return it.cur
}

func (ts *TimeSeries) value(i int) float64 {
	return ts.chunks[i/chunkLen].vals[i&(chunkLen-1)]
}

// Iter walks samples [i, j) of ts in order, 0 <= i <= j <= Len(). It
// starts from i's checkpoint, so it decodes up to markEvery-1 time deltas
// before sample i and one per sample after.
func (ts *TimeSeries) Iter(i, j int) Iter {
	if i >= j {
		return Iter{ts: ts, i: i, j: j}
	}
	it := Iter{ts: ts, i: i &^ (markEvery - 1), j: j}
	for it.i < i {
		it.Next()
	}
	return it
}

// Iter is a cursor over a TimeSeries, made by TimeSeries.Iter:
//
//	for it := ts.Iter(0, ts.Len()); it.Next(); {
//		s := it.Sample()
//	}
type Iter struct {
	ts   *TimeSeries
	i, j int // next index, end
	pos  int // offset of sample i's delta in its chunk's time column
	cur  Sample
}

// Next advances to the next sample and reports whether there was one.
func (it *Iter) Next() bool {
	if it.i >= it.j {
		return false
	}
	c := it.ts.chunks[it.i/chunkLen]
	off := it.i & (chunkLen - 1)
	if m := off / markEvery; off%markEvery == 0 {
		it.cur.At, it.pos = c.marks[m], int(c.offs[m])
	} else {
		d, n := binary.Varint(c.times[it.pos:])
		it.cur.At += time.Duration(d)
		it.pos += n
	}
	it.cur.Value = c.vals[off]
	it.i++
	return true
}

// Sample returns the sample the last Next advanced to.
func (it *Iter) Sample() Sample { return it.cur }

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
		out = append(out, ts.value(i))
	}
	return out
}

// Snapshot returns an independent series with the same samples. Full
// chunks are immutable once written, so the copy shares them and
// duplicates only the chunk still being filled.
func (ts *TimeSeries) Snapshot() *TimeSeries {
	out := *ts
	out.chunks = append([]*chunk(nil), ts.chunks...)
	if ts.n&(chunkLen-1) != 0 {
		tail := *ts.chunks[len(ts.chunks)-1]
		vals := *tail.vals
		tail.vals = &vals
		tail.times = append(make([]byte, 0, cap(tail.times)), tail.times...)
		out.chunks[len(out.chunks)-1] = &tail
	}
	return &out
}

// Last returns the most recent sample value, or 0 if empty.
func (ts *TimeSeries) Last() float64 {
	if ts.n == 0 {
		return 0
	}
	return ts.value(ts.n - 1)
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
		sum += ts.value(k)
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
