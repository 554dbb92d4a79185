package cc

import (
	"time"

	"repro/internal/packet"
	"repro/internal/units"
)

// KellyConfig parameterizes the continuous-feedback Kelly controller of
// paper eq. (7) — the application-friendly form from Dai & Loguinov that
// MKC discretizes:
//
//	dr/dt = α − β·p(t)·r(t)
//
// Euler-integrated with step Step per accepted feedback epoch. Its fixed
// point under the router feedback law is the same r* = C/N + α/β as MKC
// (plug p = (R−C)/R into α = βpr), but the transient is a continuous
// relaxation rather than MKC's one-jump-per-epoch updates, and stability
// depends on the step size: β·p·Step must stay below 2.
type KellyConfig struct {
	// Alpha is the additive term in rate-per-second (e.g. 100 kb/s per
	// second ramps 100 kb/s of rate every second at zero loss).
	Alpha units.BitRate
	// Beta is the multiplicative gain in 1/second.
	Beta float64
	// Step is the Euler integration step applied per accepted feedback
	// (typically the router interval T).
	Step time.Duration
	// InitialRate, MinRate, MaxRate as in MKCConfig.
	InitialRate units.BitRate
	MinRate     units.BitRate
	MaxRate     units.BitRate
}

// DefaultKellyConfig returns gains that match MKC's per-epoch behaviour at
// the paper's T = 30 ms: α·Step = 20 kb/s and β·Step = 0.5.
func DefaultKellyConfig() KellyConfig {
	return KellyConfig{
		Alpha:       units.BitRate(20.0 / 0.03 * 1000), // 20 kb/s per 30 ms step
		Beta:        0.5 / 0.03,
		Step:        30 * time.Millisecond,
		InitialRate: 128 * units.Kbps,
		MinRate:     16 * units.Kbps,
	}
}

// Kelly is the Euler-discretized continuous controller.
type Kelly struct {
	cfg   KellyConfig
	rate  units.BitRate
	loss  float64
	fresh freshness
}

var _ Controller = (*Kelly)(nil)

// NewKelly validates cfg and returns a controller.
func NewKelly(cfg KellyConfig) *Kelly {
	// Exact zero-value check: it detects an unset config, while a negative
	// β stays legal for instability demonstrations.
	//pelsvet:allow floateq
	if cfg.Beta == 0 {
		panic("cc: Kelly beta must be non-zero")
	}
	if cfg.Step <= 0 {
		panic("cc: Kelly step must be positive")
	}
	if cfg.InitialRate <= 0 {
		panic("cc: Kelly initial rate must be positive")
	}
	return &Kelly{cfg: cfg, rate: cfg.InitialRate}
}

// OnFeedback implements Controller.
func (k *Kelly) OnFeedback(fb packet.Feedback) bool {
	if !k.fresh.accept(fb) {
		return false
	}
	k.loss = fb.Loss
	h := k.cfg.Step.Seconds()
	delta := h * (float64(k.cfg.Alpha) - k.cfg.Beta*fb.Loss*float64(k.rate))
	k.rate = clampRate(k.rate+units.BitRate(delta), k.cfg.MinRate, k.cfg.MaxRate)
	return true
}

// Rate implements Controller.
func (k *Kelly) Rate() units.BitRate { return k.rate }

// LastLoss implements Controller.
func (k *Kelly) LastLoss() float64 { return k.loss }

// StationaryRate returns the fixed point r* = C/N + α'/β' where α' and β'
// are the per-second gains (identical to MKC's eq. 10 because α/β is
// step-invariant).
func (cfg KellyConfig) StationaryRate(c units.BitRate, n int) units.BitRate {
	return MKCConfig{Alpha: cfg.Alpha, Beta: cfg.Beta}.StationaryRate(c, n)
}
