package stats

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestTimeSeriesBasics(t *testing.T) {
	ts := NewTimeSeries("x")
	if ts.Len() != 0 || ts.Last() != 0 || ts.Mean() != 0 {
		t.Error("empty series should be all zeros")
	}
	ts.Add(time.Second, 1)
	ts.Add(2*time.Second, 3)
	ts.Add(3*time.Second, 5)
	if ts.Len() != 3 {
		t.Errorf("Len = %d", ts.Len())
	}
	if ts.Last() != 5 {
		t.Errorf("Last = %v", ts.Last())
	}
	if ts.Mean() != 3 {
		t.Errorf("Mean = %v", ts.Mean())
	}
}

func TestTimeSeriesAfter(t *testing.T) {
	ts := NewTimeSeries("x")
	for i := 1; i <= 10; i++ {
		ts.Add(time.Duration(i)*time.Second, float64(i))
	}
	first := ts.Search(6 * time.Second)
	if got := ts.Len() - first; got != 5 {
		t.Fatalf("samples after 6s = %d, want 5", got)
	}
	if got := ts.Sample(first).Value; got != 6 {
		t.Errorf("first value = %v, want 6", got)
	}
	if got := ts.MeanAfter(6 * time.Second); got != 8 {
		t.Errorf("MeanAfter = %v, want 8", got)
	}
	if got := ts.MeanAfter(time.Hour); got != 0 {
		t.Errorf("MeanAfter beyond end = %v, want 0", got)
	}
}

func TestTimeSeriesValues(t *testing.T) {
	ts := NewTimeSeries("x")
	ts.Add(0, 1)
	ts.Add(time.Second, 2)
	vs := ts.Values()
	vs[0] = 99 // must be a copy
	if ts.Sample(0).Value != 1 {
		t.Error("Values() returned a view, not a copy")
	}
}

func TestMeanStdDev(t *testing.T) {
	vs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(vs); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	if got := StdDev(vs); math.Abs(got-2.138) > 0.001 {
		t.Errorf("StdDev = %v, want ~2.138", got)
	}
	if StdDev([]float64{1}) != 0 || Mean(nil) != 0 {
		t.Error("degenerate inputs")
	}
}

func TestPercentile(t *testing.T) {
	vs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	tests := []struct {
		q, want float64
	}{
		{0, 1}, {100, 10}, {50, 5.5}, {25, 3.25}, {90, 9.1},
	}
	for _, tt := range tests {
		if got := Percentile(vs, tt.q); math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("P%g = %v, want %v", tt.q, got, tt.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty percentile != 0")
	}
}

func TestPercentileDoesNotMutateInput(t *testing.T) {
	vs := []float64{3, 1, 2}
	Percentile(vs, 50)
	if vs[0] != 3 || vs[1] != 1 || vs[2] != 2 {
		t.Error("Percentile sorted the caller's slice")
	}
}

func TestWelfordMatchesDirectComputation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var w Welford
	var vs []float64
	for i := 0; i < 1000; i++ {
		v := rng.NormFloat64()*5 + 10
		w.Add(v)
		vs = append(vs, v)
	}
	if math.Abs(w.Mean()-Mean(vs)) > 1e-9 {
		t.Errorf("Welford mean %v != direct %v", w.Mean(), Mean(vs))
	}
	if math.Abs(w.StdDev()-StdDev(vs)) > 1e-9 {
		t.Errorf("Welford stddev %v != direct %v", w.StdDev(), StdDev(vs))
	}
	if w.N() != 1000 {
		t.Errorf("N = %d", w.N())
	}
}

func TestWelfordMinMax(t *testing.T) {
	var w Welford
	for _, v := range []float64{3, -1, 7, 2} {
		w.Add(v)
	}
	if w.Min() != -1 || w.Max() != 7 {
		t.Errorf("min/max = %v/%v", w.Min(), w.Max())
	}
	var empty Welford
	if empty.Min() != 0 || empty.Max() != 0 || empty.Variance() != 0 {
		t.Error("empty Welford should be zeros")
	}
}

// TestWelfordProperty: mean is within [min, max] and variance >= 0 for any
// input.
func TestWelfordProperty(t *testing.T) {
	f := func(vs []float64) bool {
		var w Welford
		ok := true
		for _, v := range vs {
			if math.IsNaN(v) || math.Abs(v) > 1e100 {
				return true // extreme magnitudes overflow float64 variance
			}
			w.Add(v)
		}
		if w.N() > 0 {
			ok = ok && w.Mean() >= w.Min()-1e-9 && w.Mean() <= w.Max()+1e-9
			ok = ok && w.Variance() >= 0
		}
		return ok
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(47))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestWriteCSV(t *testing.T) {
	a := NewTimeSeries("a")
	a.Add(time.Second, 1.5)
	a.Add(2*time.Second, 2.5)
	b := NewTimeSeries("b")
	b.Add(500*time.Millisecond, 9)
	var sb strings.Builder
	if err := WriteCSV(&sb, a, b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d, want 3:\n%s", len(lines), sb.String())
	}
	if lines[0] != "a_t,a,b_t,b" {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "1.000000,1.5,0.500000,9") {
		t.Errorf("row 1 = %q", lines[1])
	}
	// Shorter series leaves trailing cells empty.
	if !strings.HasSuffix(lines[2], ",,") {
		t.Errorf("row 2 = %q, want empty trailing cells", lines[2])
	}
}
