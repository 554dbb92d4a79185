package cc

import (
	"repro/internal/packet"
	"repro/internal/units"
)

// AIMD's constants: the additive step of the paper's MKC setup per
// loss-free control interval, and TCP-like halving on loss.
const (
	aimdIncrease = 20 * units.Kbps
	aimdDecrease = 0.5
)

// AIMD is the additive-increase/multiplicative-decrease baseline the paper
// calls "unacceptable for video streaming due to its large rate
// fluctuations" (§5). It consumes the same router feedback as MKC:
// positive loss triggers a multiplicative back-off, otherwise the rate
// grows additively.
type AIMD struct {
	rate  units.BitRate
	loss  float64
	fresh freshness
}

var _ Controller = (*AIMD)(nil)

// NewAIMD returns a controller at the baselines' initial rate.
func NewAIMD() *AIMD { return &AIMD{rate: baselineInitialRate} }

// OnFeedback implements Controller.
func (a *AIMD) OnFeedback(fb packet.Feedback) bool {
	if !a.fresh.accept(fb) {
		return false
	}
	a.loss = fb.Loss
	var next units.BitRate
	if fb.Loss > 0 {
		next = units.BitRate(float64(a.rate) * aimdDecrease)
	} else {
		next = a.rate + aimdIncrease
	}
	a.rate = clampRate(next, baselineMinRate, 0)
	return true
}

// Rate implements Controller.
func (a *AIMD) Rate() units.BitRate { return a.rate }

// LastLoss implements Controller.
func (a *AIMD) LastLoss() float64 { return a.loss }
