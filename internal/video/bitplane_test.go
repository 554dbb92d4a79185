package video

import (
	"math"
	"testing"
)

func TestBitplaneModelSizes(t *testing.T) {
	m := DefaultBitplaneModel()
	if m.PlaneBytes(0) != 2000 {
		t.Errorf("plane 0 = %d", m.PlaneBytes(0))
	}
	if m.PlaneBytes(1) != 3200 {
		t.Errorf("plane 1 = %d, want 3200", m.PlaneBytes(1))
	}
	total := totalBytes(m)
	// Sized to approximate the paper's 52,500-byte enhancement layer.
	if total < 45000 || total > 60000 {
		t.Errorf("total bytes = %d, want ≈ 52500", total)
	}
}

func TestBitplaneGainSteps(t *testing.T) {
	m := DefaultBitplaneModel()
	if m.Gain(0) != 0 || m.Gain(-10) != 0 {
		t.Error("gain at zero bytes")
	}
	// Exactly one full plane.
	if got := m.Gain(m.PlaneBytes(0)); math.Abs(got-m.StepDB) > 1e-9 {
		t.Errorf("one plane = %v, want %v", got, m.StepDB)
	}
	// Half of the first plane pro-rates.
	if got := m.Gain(m.PlaneBytes(0) / 2); math.Abs(got-m.StepDB/2) > 1e-9 {
		t.Errorf("half plane = %v, want %v", got, m.StepDB/2)
	}
	// The full layer reaches MaxGain.
	if got := m.Gain(totalBytes(m)); math.Abs(got-m.StepDB*float64(m.Planes)) > 1e-9 {
		t.Errorf("full layer = %v, want %v", got, m.StepDB*float64(m.Planes))
	}
	// Beyond the layer, gain saturates.
	if got := m.Gain(10 * totalBytes(m)); math.Abs(got-m.StepDB*float64(m.Planes)) > 1e-9 {
		t.Errorf("beyond layer = %v, want saturation at %v", got, m.StepDB*float64(m.Planes))
	}
}

func TestBitplaneGainMonotoneAndDiminishing(t *testing.T) {
	m := DefaultBitplaneModel()
	prev := 0.0
	// Per-byte efficiency must fall (or stay flat) as bytes grow: later
	// bitplanes are bigger but contribute the same step.
	prevEff := math.Inf(1)
	for b := 500; b <= totalBytes(m); b += 500 {
		g := m.Gain(b)
		if g < prev-1e-12 {
			t.Fatalf("gain not monotone at %d bytes", b)
		}
		eff := g / float64(b)
		if eff > prevEff+1e-12 {
			t.Fatalf("per-byte efficiency increased at %d bytes", b)
		}
		prev, prevEff = g, eff
	}
}

// TestBitplaneAgreesWithRDModelShape: both quality models must rank the
// same byte budgets the same way and land within a few dB of each other
// across the operating range — the Fig. 10 conclusions cannot hinge on
// the model choice.
func TestBitplaneAgreesWithRDModelShape(t *testing.T) {
	bp := DefaultBitplaneModel()
	rd := DefaultRDModel()
	for b := 1000; b <= 50000; b += 1000 {
		g1, g2 := bp.Gain(b), rd.Gain(b)
		if math.Abs(g1-g2) > 6 {
			t.Errorf("models diverge at %d bytes: bitplane %.1f vs log %.1f dB", b, g1, g2)
		}
	}
}

// TestBitplanePSNR: a frame's bitplane quality is its base PSNR plus the
// gain of its decodable bytes: nothing on top for zero bytes, every step
// for the whole layer.
func TestBitplanePSNR(t *testing.T) {
	m := DefaultBitplaneModel()
	if got := 30 + m.Gain(0); got != 30 {
		t.Errorf("base-only PSNR = %v", got)
	}
	if got := 30 + m.Gain(totalBytes(m)); math.Abs(got-(30+26)) > 1e-9 {
		t.Errorf("full-layer PSNR = %v, want 56", got)
	}
}

// TestBitplaneValidate: the default model is a usable one: positive planes,
// plane size and step, and planes that never shrink.
func TestBitplaneValidate(t *testing.T) {
	m := DefaultBitplaneModel()
	if m.Planes <= 0 || m.FirstPlaneBytes <= 0 || m.Growth < 1 || m.StepDB <= 0 {
		t.Fatalf("default model invalid: %+v", m)
	}
}

// totalBytes returns the full enhancement-layer size of m.
func totalBytes(m BitplaneModel) int {
	total := 0
	for i := 0; i < m.Planes; i++ {
		total += m.PlaneBytes(i)
	}
	return total
}
