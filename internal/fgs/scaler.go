package fgs

import (
	"time"

	"repro/internal/units"
)

// Scaler decides the byte budget x_i of each video frame given the
// congestion controller's current rate. The paper's experiments transmit a
// fixed fraction of each frame (x_i = r·interval, ConstantScaler) and note
// (§2.3, §6.5) that rate-distortion-aware scaling [Dai & Loguinov, NOSSDAV
// 2003] can further smooth quality by giving complex frames a larger share
// of the budget; RDScaler implements that extension.
type Scaler interface {
	// Budget returns the target size in bytes for the given frame at the
	// current sending rate.
	Budget(frame int, rate units.BitRate, interval time.Duration) int
}

// ConstantScaler is the paper's default: every frame gets exactly one
// frame interval's worth of the current rate.
type ConstantScaler struct{}

var _ Scaler = ConstantScaler{}

// Budget implements Scaler.
func (ConstantScaler) Budget(_ int, rate units.BitRate, interval time.Duration) int {
	return rate.BytesIn(interval)
}

// RDScaler allocates rate across frames proportionally to their relative
// complexity, so that frames that need more bits to reach the same quality
// receive them. A running credit counter keeps the long-run average budget
// equal to the controller's rate: a frame that borrows extra bytes is paid
// for by cheaper frames around it, and the sending rate never drifts from
// what congestion control granted.
type RDScaler struct {
	// Complexity returns the relative coding complexity of a frame;
	// values are normalized internally by a running mean, so any positive
	// scale works. Nil behaves like ConstantScaler.
	Complexity func(frame int) float64
	// MaxBoost bounds the per-frame allocation to [1/MaxBoost, MaxBoost]
	// times the nominal budget (default 1.5).
	MaxBoost float64
	// CreditGain is the fraction of the accumulated conservation credit
	// repaid per frame (default 0.02). The complexity normalization is
	// already rate-conserving in expectation; the credit only trims slow
	// drift. A large gain would cancel the boost inside sustained
	// complexity regimes (the credit's fixed point is budget = nominal).
	CreditGain float64

	meanComplexity float64
	frames         int
	creditBytes    float64
}

var _ Scaler = (*RDScaler)(nil)

// NewRDScaler builds a scaler over the given complexity oracle.
func NewRDScaler(complexity func(frame int) float64) *RDScaler {
	return &RDScaler{Complexity: complexity, MaxBoost: 1.5, CreditGain: 0.02}
}

// Budget implements Scaler.
func (s *RDScaler) Budget(frame int, rate units.BitRate, interval time.Duration) int {
	nominal := rate.BytesIn(interval)
	if s.Complexity == nil || nominal <= 0 {
		return nominal
	}
	c := s.Complexity(frame)
	if c <= 0 {
		c = 1
	}
	// Running mean of complexity normalizes the oracle's scale.
	s.frames++
	s.meanComplexity += (c - s.meanComplexity) / float64(s.frames)

	boost := s.MaxBoost
	if boost <= 1 {
		boost = 1.5
	}
	share := c / s.meanComplexity
	if share > boost {
		share = boost
	}
	if share < 1/boost {
		share = 1 / boost
	}
	budget := float64(nominal) * share

	// Conservation: slowly repay the credit so the long-run average stays
	// at the nominal rate. Positive credit means past frames spent less
	// than granted.
	gain := s.CreditGain
	if gain <= 0 || gain > 1 {
		gain = 0.02
	}
	budget += s.creditBytes * gain
	if budget < 0 {
		budget = 0
	}
	s.creditBytes += float64(nominal) - budget
	return int(budget)
}
