package cc

import (
	"math"

	"repro/internal/packet"
	"repro/internal/units"
)

// BinomialConfig parameterizes the binomial congestion-control family of
// Bansal & Balakrishnan (INFOCOM 2001), which the paper lists among the
// smooth controllers developed for multimedia (§5):
//
//	increase: r ← r + α/r^k   (per loss-free control interval)
//	decrease: r ← r − β·r^l   (per loss event)
//
// (k,l) = (0,1) is AIMD; (1,0) is IIAD (inverse increase, additive
// decrease); (1/2,1/2) is SQRT. TCP-friendly members satisfy k+l = 1.
// Rates are handled in kb/s internally so the r^k terms stay in a sane
// numeric range for the usual gains.
type BinomialConfig struct {
	// K and L are the increase/decrease exponents.
	K, L float64
	// Alpha and Beta are the gain constants (in the kb/s domain).
	Alpha, Beta float64
	// InitialRate and MinRate as in MKCConfig; the rate is uncapped.
	InitialRate units.BitRate
	MinRate     units.BitRate
}

// IIADConfig returns the inverse-increase/additive-decrease member
// (k=1, l=0).
func IIADConfig() BinomialConfig {
	return BinomialConfig{
		K: 1, L: 0,
		Alpha: 10000, Beta: 20,
		InitialRate: 128 * units.Kbps,
		MinRate:     16 * units.Kbps,
	}
}

// SQRTConfig returns the square-root member (k=l=1/2).
func SQRTConfig() BinomialConfig {
	return BinomialConfig{
		K: 0.5, L: 0.5,
		Alpha: 600, Beta: 1,
		InitialRate: 128 * units.Kbps,
		MinRate:     16 * units.Kbps,
	}
}

// Binomial is a binomial-family controller driven by the same router
// feedback as MKC: positive loss is a loss event, otherwise the interval
// was loss-free.
type Binomial struct {
	cfg   BinomialConfig
	rate  units.BitRate
	loss  float64
	fresh freshness
}

var _ Controller = (*Binomial)(nil)

// NewBinomial validates cfg and returns a controller.
func NewBinomial(cfg BinomialConfig) *Binomial {
	if cfg.Alpha <= 0 || cfg.Beta <= 0 {
		panic("cc: binomial gains must be positive")
	}
	if cfg.K < 0 || cfg.L < 0 {
		panic("cc: binomial exponents must be non-negative")
	}
	if cfg.InitialRate <= 0 {
		panic("cc: binomial initial rate must be positive")
	}
	return &Binomial{cfg: cfg, rate: cfg.InitialRate}
}

// OnFeedback implements Controller.
func (b *Binomial) OnFeedback(fbk packet.Feedback) bool {
	if !b.fresh.accept(fbk) {
		return false
	}
	b.loss = fbk.Loss
	r := b.rate.KbpsValue()
	if fbk.Loss > 0 {
		r -= b.cfg.Beta * math.Pow(r, b.cfg.L)
	} else {
		r += b.cfg.Alpha / math.Pow(r, b.cfg.K)
	}
	b.rate = clampRate(units.BitRate(r*1000), b.cfg.MinRate, 0)
	return true
}

// Rate implements Controller.
func (b *Binomial) Rate() units.BitRate { return b.rate }

// LastLoss implements Controller.
func (b *Binomial) LastLoss() float64 { return b.loss }
