package cc

import (
	"repro/internal/analysis"
	"repro/internal/packet"
	"repro/internal/units"
)

// MKCConfig parameterizes Max-min Kelly Control. The paper's simulations
// use α = 20 kb/s, β = 0.5, initial rate 128 kb/s.
type MKCConfig struct {
	// Alpha is the additive increase per control step (a rate).
	Alpha units.BitRate
	// Beta is the multiplicative feedback gain; stability requires
	// 0 < β < 2 (paper Lemma 5).
	Beta float64
	// InitialRate is r(0).
	InitialRate units.BitRate
	// MinRate floors the rate (the base-layer rate is a natural choice —
	// below it no meaningful streaming is possible).
	MinRate units.BitRate
	// MaxRate caps the rate; 0 means uncapped.
	MaxRate units.BitRate
	// DedupEpochs enables epoch-based feedback deduplication (paper
	// §5.2). It defaults to on via DefaultMKCConfig; turning it off is an
	// ablation that makes the control loop react multiple times per
	// router interval.
	DedupEpochs bool
}

// DefaultMKCConfig returns the paper's MKC parameters.
func DefaultMKCConfig() MKCConfig {
	return MKCConfig{
		Alpha:       20 * units.Kbps,
		Beta:        0.5,
		InitialRate: 128 * units.Kbps,
		MinRate:     16 * units.Kbps,
		MaxRate:     0,
		DedupEpochs: true,
	}
}

// MKC implements the discrete Max-min Kelly Control of paper eq. (8):
//
//	r(k) = r(k−D) + α − β·r(k−D)·p(k−D)
//
// where p is the loss feedback from the most congested router on the path.
// Negative p (spare capacity) makes the α − βrp term positive and
// proportional to r, which yields the exponential bandwidth claiming seen
// in Fig. 9 (right); positive p decelerates and stabilizes the rate at
// r* = C/N + α/β (paper eq. 10).
type MKC struct {
	cfg   MKCConfig
	rate  units.BitRate
	loss  float64
	fresh freshness

	updates int64
}

var _ Controller = (*MKC)(nil)

// NewMKC validates cfg and returns a controller.
func NewMKC(cfg MKCConfig) *MKC {
	if cfg.Beta <= 0 || cfg.Beta >= 2 {
		// Outside (0,2) the controller is provably unstable (Lemma 5);
		// allow it anyway for instability demonstrations, but flag the
		// obviously-broken zero value.
		// Exact zero-value check distinguishing "unset" from a
		// deliberately out-of-range β.
		//pelsvet:allow floateq
		if cfg.Beta == 0 {
			panic("cc: MKC beta must be non-zero")
		}
	}
	if cfg.InitialRate <= 0 {
		panic("cc: MKC initial rate must be positive")
	}
	return &MKC{cfg: cfg, rate: cfg.InitialRate}
}

// OnFeedback implements Controller.
func (m *MKC) OnFeedback(fb packet.Feedback) bool {
	if m.cfg.DedupEpochs {
		if !m.fresh.accept(fb) {
			return false
		}
	} else if !fb.Valid {
		return false
	}
	m.loss = fb.Loss
	next := m.rate + m.cfg.Alpha - units.BitRate(m.cfg.Beta*float64(m.rate)*fb.Loss)
	m.rate = clampRate(next, m.cfg.MinRate, m.cfg.MaxRate)
	m.updates++
	return true
}

// Rate implements Controller.
func (m *MKC) Rate() units.BitRate { return m.rate }

// LastLoss implements Controller.
func (m *MKC) LastLoss() float64 { return m.loss }

// StationaryRate returns the closed-form equilibrium rate of paper eq. (10)
// for n flows sharing capacity c: r* = C/N + α/β (analysis.MKCStationaryRate).
func (cfg MKCConfig) StationaryRate(c units.BitRate, n int) units.BitRate {
	return units.BitRate(analysis.MKCStationaryRate(float64(c), float64(cfg.Alpha), cfg.Beta, n))
}

// StationaryLoss returns the equilibrium feedback loss for n flows on
// capacity c: p* = Nα / (βC + Nα) (analysis.MKCStationaryLoss).
func (cfg MKCConfig) StationaryLoss(c units.BitRate, n int) float64 {
	return analysis.MKCStationaryLoss(float64(c), float64(cfg.Alpha), cfg.Beta, n)
}
