package experiments

import (
	"math"
	"testing"
	"time"

	"repro/internal/stats"
)

func seriesOf(points ...[2]float64) *stats.TimeSeries {
	ts := stats.NewTimeSeries("x")
	for _, p := range points {
		ts.Add(time.Duration(p[0]*float64(time.Second)), p[1])
	}
	return ts
}

func TestDominantID(t *testing.T) {
	ts := seriesOf([2]float64{1, 3}, [2]float64{2, 3}, [2]float64{3, 5}, [2]float64{4, 3})
	if got := dominantID(ts, 0, 10*time.Second); got != 3 {
		t.Errorf("dominantID = %d, want 3", got)
	}
	if got := dominantID(ts, 2500*time.Millisecond, 3500*time.Millisecond); got != 5 {
		t.Errorf("dominantID in [2.5,3.5) = %d, want 5", got)
	}
}

func TestImprovementVsBase(t *testing.T) {
	base := []float64{30, 30}
	psnr := []float64{33, 36}
	// (10% + 20%) / 2 = 15%.
	if got := improvementVsBase(base, psnr); math.Abs(got-15) > 1e-9 {
		t.Errorf("improvement = %v, want 15", got)
	}
	if got := improvementVsBase(nil, psnr); got != 0 {
		t.Errorf("empty base = %v, want 0", got)
	}
}

func TestSwingHelper(t *testing.T) {
	if got := swing([]float64{3, 9, 5}); got != 6 {
		t.Errorf("swing = %v, want 6", got)
	}
	if got := swing(nil); got != 0 {
		t.Errorf("empty swing = %v, want 0", got)
	}
}

func TestFairnessTime(t *testing.T) {
	a := seriesOf([2]float64{1, 100}, [2]float64{2, 150}, [2]float64{3, 102}, [2]float64{4, 101})
	b := seriesOf([2]float64{1, 100}, [2]float64{2, 100}, [2]float64{3, 100}, [2]float64{4, 100})
	got := fairnessTime(a, b, 0, 0.10)
	if got != 3*time.Second {
		t.Errorf("fairnessTime = %v, want 3s (t=2 breaks the band)", got)
	}
	neverFair := seriesOf([2]float64{1, 500})
	if got := fairnessTime(neverFair, b, 0, 0.10); got != -1 {
		t.Errorf("fairnessTime = %v, want -1", got)
	}
	if got := fairnessTime(a, stats.NewTimeSeries("empty"), 0, 0.1); got != -1 {
		t.Errorf("fairnessTime with empty b = %v, want -1", got)
	}
}

// TestTestbedDeterminism: two identical runs produce bit-identical series.
func TestTestbedDeterminism(t *testing.T) {
	run := func() []float64 {
		cfg := DefaultTestbedConfig()
		tb, err := NewTestbed(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := tb.Run(20 * time.Second); err != nil {
			t.Fatal(err)
		}
		return tb.RateSeries[0].Values()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("series lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at sample %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestTestbedSeedSensitivity: in best-effort mode the oracle's Bernoulli
// drops are the stochastic component, so different seeds must diverge.
// (A pure PELS run is fully deterministic — no random drops anywhere — so
// seeds intentionally do NOT change it.)
func TestTestbedSeedSensitivity(t *testing.T) {
	run := func(seed int64) float64 {
		cfg := DefaultTestbedConfig()
		cfg.Seed = seed
		cfg.NumPELS = 4
		cfg.BestEffort = true
		tb, err := NewTestbed(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := tb.Run(20 * time.Second); err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for _, v := range tb.RedLossSeries.Values() {
			sum += v
		}
		return sum
	}
	if run(1) == run(2) {
		t.Error("different seeds produced identical video-queue loss series")
	}
}

func TestTestbedValidation(t *testing.T) {
	cfg := DefaultTestbedConfig()
	cfg.NumPELS = 0
	if _, err := NewTestbed(cfg); err == nil {
		t.Error("NumPELS=0 accepted")
	}
}

func TestPELSCapacityShare(t *testing.T) {
	cfg := DefaultTestbedConfig()
	if got := cfg.PELSCapacity().KbpsValue() / 1000; math.Abs(got-2) > 1e-9 {
		t.Errorf("PELS capacity = %v mb/s, want 2", got)
	}
	cfg.Bottleneck.PELSWeight = 3
	cfg.Bottleneck.InternetWeight = 1
	if got := cfg.PELSCapacity().KbpsValue() / 1000; math.Abs(got-3) > 1e-9 {
		t.Errorf("PELS capacity = %v mb/s, want 3", got)
	}
}
