package cc

import (
	"math"
	"testing"

	"repro/internal/units"
)

// TestBinomialTCPFriendlyRule: both members the experiments run are
// TCP-compatible, k+l = 1.
func TestBinomialTCPFriendlyRule(t *testing.T) {
	friendly := func(cfg BinomialConfig) bool { return math.Abs(cfg.K+cfg.L-1) < 1e-9 }
	if !friendly(IIADConfig()) {
		t.Error("IIAD (k=1, l=0) should satisfy k+l=1")
	}
	if !friendly(SQRTConfig()) {
		t.Error("SQRT (k=l=1/2) should satisfy k+l=1")
	}
}

func TestBinomialUpdateEquations(t *testing.T) {
	cfg := BinomialConfig{
		K: 1, L: 0, Alpha: 10000, Beta: 20,
		InitialRate: 500 * units.Kbps, MinRate: units.Kbps,
	}
	b := NewBinomial(cfg)
	// Increase: r + α/r = 500 + 10000/500 = 520.
	b.OnFeedback(fb(1, 1, 0))
	if got := b.Rate().KbpsValue(); math.Abs(got-520) > 1e-9 {
		t.Errorf("after increase: %v, want 520", got)
	}
	// Decrease: r − β·r^0 = 520 − 20 = 500.
	b.OnFeedback(fb(1, 2, 0.1))
	if got := b.Rate().KbpsValue(); math.Abs(got-500) > 1e-9 {
		t.Errorf("after decrease: %v, want 500", got)
	}
}

// TestBinomialSmootherThanAIMD: the binomial family exists because its
// oscillation amplitude shrinks with rate; under the same feedback law the
// IIAD and SQRT sawtooths must be far smaller than AIMD's.
func TestBinomialSmootherThanAIMD(t *testing.T) {
	capacity := 1000.0
	tailSwing := func(ctrl Controller) float64 {
		min, max := math.Inf(1), math.Inf(-1)
		for e := uint64(1); e <= 3000; e++ {
			r := ctrl.Rate().KbpsValue()
			loss := (r - capacity) / r
			ctrl.OnFeedback(fb(1, e, loss))
			if e > 2500 {
				v := ctrl.Rate().KbpsValue()
				if v < min {
					min = v
				}
				if v > max {
					max = v
				}
			}
		}
		return max - min
	}
	aimd := tailSwing(NewAIMD())
	iiad := tailSwing(NewBinomial(IIADConfig()))
	sqrt := tailSwing(NewBinomial(SQRTConfig()))
	t.Logf("tail swings: AIMD %.1f, IIAD %.1f, SQRT %.1f kb/s", aimd, iiad, sqrt)
	if iiad > aimd/3 {
		t.Errorf("IIAD swing %.1f not well below AIMD %.1f", iiad, aimd)
	}
	if sqrt > aimd/3 {
		t.Errorf("SQRT swing %.1f not well below AIMD %.1f", sqrt, aimd)
	}
}

// TestBinomialOscillatesUnlikeMKC: binomial controllers never settle at a
// point — the paper's §5 observation that such schemes "do not have
// stationary points in the operating range and continuously oscillate".
func TestBinomialOscillatesUnlikeMKC(t *testing.T) {
	capacity := 1000.0
	b := NewBinomial(IIADConfig())
	var vals []float64
	for e := uint64(1); e <= 3000; e++ {
		r := b.Rate().KbpsValue()
		loss := (r - capacity) / r
		b.OnFeedback(fb(1, e, loss))
		if e > 2900 {
			vals = append(vals, b.Rate().KbpsValue())
		}
	}
	moving := false
	for i := 1; i < len(vals); i++ {
		if vals[i] != vals[i-1] {
			moving = true
			break
		}
	}
	if !moving {
		t.Error("IIAD settled at a fixed point; it should keep oscillating")
	}
}

func TestBinomialClampsAndDedups(t *testing.T) {
	cfg := IIADConfig()
	cfg.MinRate = 100 * units.Kbps
	cfg.InitialRate = 105 * units.Kbps
	cfg.Beta = 1e6 // absurd decrease to force the clamp
	b := NewBinomial(cfg)
	b.OnFeedback(fb(1, 1, 0.5))
	if b.Rate() != 100*units.Kbps {
		t.Errorf("rate = %v, want clamp at 100 kb/s", b.Rate())
	}
	if b.OnFeedback(fb(1, 1, 0.5)) {
		t.Error("duplicate epoch accepted")
	}
}

func TestBinomialPanicsOnBadConfig(t *testing.T) {
	for name, cfg := range map[string]BinomialConfig{
		"zero alpha":   {K: 1, L: 0, Beta: 1, InitialRate: units.Kbps},
		"neg exponent": {K: -1, L: 0, Alpha: 1, Beta: 1, InitialRate: units.Kbps},
		"zero rate":    {K: 1, L: 0, Alpha: 1, Beta: 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewBinomial(%s) did not panic", name)
				}
			}()
			NewBinomial(cfg)
		}()
	}
}
