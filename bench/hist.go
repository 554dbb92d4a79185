package main

import (
	"math"
	"math/bits"
	"sort"
	"sync/atomic"
)

// hist is a fixed-size log-linear histogram of non-negative int64 samples
// (nanoseconds here): 32 linear sub-buckets per power of two, so a bucket
// is at most 1/32 of its value wide. Recording is one atomic add and never
// allocates, which is what lets the tap and the sink time every sampled
// datagram on the hot path; quantiles interpolate inside the bucket by
// rank, so they move continuously with the data instead of snapping to
// bucket edges.
type hist struct {
	n       atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

const (
	histSubBits = 5
	histSub     = 1 << histSubBits
	histBuckets = (64 - histSubBits + 1) * histSub
)

// histIndex maps a sample to its bucket.
func histIndex(v int64) int {
	if v < histSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1 // >= histSubBits
	sub := int(v>>(exp-histSubBits)) & (histSub - 1)
	return (exp-histSubBits+1)*histSub + sub
}

// histBounds returns bucket i's lower bound and width.
func histBounds(i int) (lo, width float64) {
	if i < histSub {
		return float64(i), 1
	}
	exp := i/histSub + histSubBits - 1
	sub := i % histSub
	w := math.Ldexp(1, exp-histSubBits)
	return float64(histSub+sub) * w, w
}

// record adds one sample.
func (h *hist) record(v int64) {
	h.buckets[histIndex(v)].Add(1)
	h.n.Add(1)
}

// count returns the number of samples recorded.
func (h *hist) count() uint64 { return h.n.Load() }

// quantile returns the q-quantile (q in [0,1]) of the recorded samples, 0
// when empty.
func (h *hist) quantile(q float64) float64 {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	target := q * float64(n)
	var cum float64
	for i := range h.buckets {
		c := float64(h.buckets[i].Load())
		if c == 0 {
			continue
		}
		if cum+c >= target {
			lo, w := histBounds(i)
			return lo + (target-cum)/c*w
		}
		cum += c
	}
	lo, w := histBounds(histBuckets - 1)
	return lo + w
}

// quartiles mirrors Python's statistics.quantiles(values, n=4) (the
// exclusive method), which is what the driver judges run-to-run spread by.
func quartiles(values []float64) (q1, q2, q3 float64) {
	vs := append([]float64(nil), values...)
	sort.Float64s(vs)
	n := len(vs)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return vs[0], vs[0], vs[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return vs[j-1] + frac*(vs[j]-vs[j-1])
	}
	return at(1), at(2), at(3)
}
