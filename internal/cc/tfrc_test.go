package cc

import (
	"math"
	"testing"

	"repro/internal/units"
)

func TestTFRCEquationShape(t *testing.T) {
	// The equation rate must be strictly decreasing in loss.
	prev := math.Inf(1)
	for _, p := range []float64{0.001, 0.01, 0.05, 0.1, 0.3} {
		r := float64(equationRate(p))
		if r >= prev {
			t.Fatalf("equation rate not decreasing at p=%g: %.0f >= %.0f", p, r, prev)
		}
		prev = r
	}
}

func TestTFRCEquationKnownPoint(t *testing.T) {
	// Simple-form sanity check: with only the RTT term,
	// r ≈ S/(RTT·√(2p/3)). At p small the RTO term is negligible.
	p := 0.001
	approx := float64(tfrcSegmentSize) * 8 / (tfrcRTT.Seconds() * math.Sqrt(2*p/3))
	got := float64(equationRate(p))
	if math.Abs(got-approx)/approx > 0.05 {
		t.Errorf("equation rate %.0f, simple-form approx %.0f", got, approx)
	}
}

func TestTFRCTracksEquationRate(t *testing.T) {
	ctrl := NewTFRC()
	// Constant 5% loss: the controller must settle at the equation rate.
	for e := uint64(1); e <= 200; e++ {
		ctrl.OnFeedback(fb(1, e, 0.05))
	}
	want := float64(equationRate(0.05))
	got := float64(ctrl.Rate())
	if math.Abs(got-want)/want > 0.02 {
		t.Errorf("rate %.0f, equation %.0f", got, want)
	}
	if math.Abs(ctrl.loss-0.05) > 1e-6 {
		t.Errorf("smoothed loss = %v", ctrl.loss)
	}
}

func TestTFRCSmootherThanAIMDUnderNoisyLoss(t *testing.T) {
	// Alternating loss/no-loss feedback: AIMD saws, TFRC's EWMA + equation
	// damp the swings — the reason TFRC exists.
	tailSwing := func(ctrl Controller) float64 {
		min, max := math.Inf(1), math.Inf(-1)
		for e := uint64(1); e <= 600; e++ {
			loss := 0.0
			if e%4 == 0 {
				loss = 0.08
			}
			ctrl.OnFeedback(fb(1, e, loss))
			if e > 500 {
				v := ctrl.Rate().KbpsValue()
				if v < min {
					min = v
				}
				if v > max {
					max = v
				}
			}
		}
		return (max - min) / max
	}
	tfrc := tailSwing(NewTFRC())
	aimd := tailSwing(NewAIMD())
	t.Logf("relative tail swings: TFRC %.3f, AIMD %.3f", tfrc, aimd)
	if tfrc > aimd/2 {
		t.Errorf("TFRC relative swing %.3f not well below AIMD %.3f", tfrc, aimd)
	}
}

func TestTFRCNegativeLossTreatedAsZero(t *testing.T) {
	ctrl := NewTFRC()
	for e := uint64(1); e <= 50; e++ {
		ctrl.OnFeedback(fb(1, e, -2))
	}
	if ctrl.loss > tfrcMinLoss+1e-6 {
		t.Errorf("smoothed loss %v grew from negative feedback", ctrl.loss)
	}
}

func TestTFRCDedupAndDefaults(t *testing.T) {
	ctrl := NewTFRC()
	if !ctrl.OnFeedback(fb(1, 1, 0.1)) || ctrl.OnFeedback(fb(1, 1, 0.1)) {
		t.Error("epoch dedup broken")
	}
	// A new controller starts at the baselines' rate with the loss floor.
	if fresh := NewTFRC(); fresh.Rate() != 128*units.Kbps || fresh.loss != tfrcMinLoss {
		t.Errorf("new controller: rate %v, loss %v", fresh.Rate(), fresh.loss)
	}
}
