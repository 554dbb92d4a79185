package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHistogramBinning(t *testing.T) {
	h := MustNewHistogram(0, 10, 10)
	for _, v := range []float64{0.5, 1.5, 1.9, 9.9} {
		h.Add(v)
	}
	if h.Bin(0) != 1 || h.Bin(1) != 2 || h.Bin(9) != 1 {
		t.Errorf("bins = %d/%d/.../%d", h.Bin(0), h.Bin(1), h.Bin(9))
	}
	if h.N() != 4 {
		t.Errorf("N = %d", h.N())
	}
}

func TestHistogramClamping(t *testing.T) {
	h := MustNewHistogram(0, 10, 10)
	h.Add(-5)
	h.Add(15)
	h.Add(math.NaN()) // ignored
	under, over := h.Clamped()
	if under != 1 || over != 1 {
		t.Errorf("clamped = %d/%d, want 1/1", under, over)
	}
	if h.N() != 2 {
		t.Errorf("N = %d, want 2 (NaN ignored)", h.N())
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := MustNewHistogram(0, 100, 100)
	for i := 0; i < 100; i++ {
		h.Add(float64(i) + 0.5)
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		got := h.Quantile(q)
		want := q * 100
		if math.Abs(got-want) > 1.5 {
			t.Errorf("Quantile(%v) = %v, want ~%v", q, got, want)
		}
	}
	if MustNewHistogram(0, 1, 4).Quantile(0.5) != 0 {
		t.Error("empty quantile != 0")
	}
}

func TestHistogramCDF(t *testing.T) {
	h := MustNewHistogram(0, 10, 10)
	for i := 0; i < 10; i++ {
		h.Add(float64(i) + 0.5)
	}
	if got := h.CDF(5); math.Abs(got-0.5) > 0.05 {
		t.Errorf("CDF(5) = %v, want ~0.5", got)
	}
	if h.CDF(-1) != 0 || h.CDF(11) != 1 {
		t.Error("CDF boundary values wrong")
	}
}

func TestHistogramString(t *testing.T) {
	h := MustNewHistogram(0, 10, 5)
	if h.String() != "(empty histogram)" {
		t.Error("empty histogram rendering")
	}
	h.Add(1)
	h.Add(1.2)
	if s := h.String(); len(s) == 0 {
		t.Error("non-empty histogram rendered empty")
	}
}

func TestHistogramConfigErrors(t *testing.T) {
	if _, err := NewHistogram(0, 10, 0); err == nil {
		t.Error("zero bins accepted")
	}
	if _, err := NewHistogram(5, 5, 10); err == nil {
		t.Error("empty range accepted")
	}
}

// TestHistogramQuantileMatchesPercentile: on random data, histogram
// quantiles approximate exact percentiles within a bin width.
func TestHistogramQuantileMatchesPercentile(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := MustNewHistogram(0, 1, 200)
		var vs []float64
		for i := 0; i < 500; i++ {
			v := rng.Float64()
			vs = append(vs, v)
			h.Add(v)
		}
		for _, q := range []float64{0.25, 0.5, 0.75, 0.95} {
			exact := Percentile(vs, q*100)
			approx := h.Quantile(q)
			if math.Abs(exact-approx) > 0.02 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(61))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestSummarizeDelays(t *testing.T) {
	vs := make([]float64, 100)
	for i := range vs {
		vs[i] = float64(i + 1)
	}
	s := SummarizeDelays(vs)
	if s.N != 100 || s.Mean != 50.5 || s.Max != 100 {
		t.Errorf("summary = %+v", s)
	}
	if math.Abs(s.P50-50.5) > 1 || math.Abs(s.P90-90) > 1.2 || math.Abs(s.P99-99) > 1.2 {
		t.Errorf("percentiles = %+v", s)
	}
	if z := SummarizeDelays(nil); z.N != 0 || z.Mean != 0 {
		t.Errorf("empty summary = %+v", z)
	}
}

// TestSummarizeDelaysMatchesPercentile: the summary's percentiles, read from
// its one sorted copy, are bit-identical to Percentile's on the raw input,
// and the input is left in its order.
func TestSummarizeDelaysMatchesPercentile(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for _, n := range []int{1, 2, 3, 10, 99, 1000} {
		vs := make([]float64, n)
		for i := range vs {
			vs[i] = rng.ExpFloat64() * 40
		}
		orig := append([]float64(nil), vs...)
		s := SummarizeDelays(vs)
		for _, c := range []struct {
			q   float64
			got float64
		}{{50, s.P50}, {90, s.P90}, {99, s.P99}} {
			//pelsvet:allow floateq
			if want := Percentile(vs, c.q); c.got != want {
				t.Errorf("n=%d p%v = %v, Percentile %v", n, c.q, c.got, want)
			}
		}
		for i := range vs {
			//pelsvet:allow floateq
			if vs[i] != orig[i] {
				t.Fatalf("n=%d: SummarizeDelays reordered its input", n)
			}
		}
	}
}
