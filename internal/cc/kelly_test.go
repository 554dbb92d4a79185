package cc

import (
	"math"
	"testing"

	"repro/internal/units"
)

func TestKellyMatchesMKCFixedPoint(t *testing.T) {
	// With gains matched to MKC at T=30 ms, both controllers share the
	// stationary rate of eq. (10).
	kcfg := MKCConfig{Alpha: kellyAlpha, Beta: kellyBeta}
	mcfg := DefaultMKCConfig()
	c := 2 * units.Mbps
	for _, n := range []int{1, 2, 4, 8} {
		kr := kcfg.StationaryRate(c, n)
		mr := mcfg.StationaryRate(c, n)
		if math.Abs(float64(kr-mr)) > 1 {
			t.Errorf("n=%d: Kelly r* %v != MKC r* %v", n, kr, mr)
		}
	}
}

func TestKellyConvergesToStationaryRate(t *testing.T) {
	k := NewKelly()
	capacity := 1000.0 // kb/s
	for e := uint64(1); e <= 1000; e++ {
		r := k.Rate().KbpsValue()
		loss := (r - capacity) / r
		k.OnFeedback(fb(1, e, loss))
	}
	want := MKCConfig{Alpha: kellyAlpha, Beta: kellyBeta}.StationaryRate(1000*units.Kbps, 1).KbpsValue()
	got := k.Rate().KbpsValue()
	if math.Abs(got-want) > want*0.02 {
		t.Errorf("rate = %.1f, want %.1f", got, want)
	}
}

func TestKellyEulerStepEquation(t *testing.T) {
	k := NewKelly()
	// Δr = h(α − βpr) = 0.03·(666,667 − 16.67·0.25·128,000) b/s = 4 kb/s.
	k.OnFeedback(fb(1, 1, 0.25))
	if got := k.Rate().KbpsValue(); math.Abs(got-132) > 1e-6 {
		t.Errorf("rate = %v, want 132", got)
	}
	if k.LastLoss() != 0.25 {
		t.Errorf("LastLoss = %v", k.LastLoss())
	}
}

func TestKellyEpochDedup(t *testing.T) {
	k := NewKelly()
	if !k.OnFeedback(fb(1, 1, 0)) {
		t.Fatal("fresh feedback rejected")
	}
	if k.OnFeedback(fb(1, 1, 0)) {
		t.Error("duplicate epoch accepted")
	}
}
