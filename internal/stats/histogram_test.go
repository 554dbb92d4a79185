package stats

import (
	"math"
	"math/rand"
	"testing"
)

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
