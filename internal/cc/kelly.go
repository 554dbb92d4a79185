package cc

import (
	"time"

	"repro/internal/packet"
	"repro/internal/units"
)

// Kelly's gains match MKC's per-epoch behaviour at the paper's T = 30 ms:
// α·kellyStep = 20 kb/s and β·kellyStep = 0.5.
const (
	// kellyAlpha is α, the additive term in rate per second.
	kellyAlpha = units.BitRate(20.0 / 0.03 * 1000)
	// kellyBeta is β, the multiplicative gain in 1/second.
	kellyBeta = 0.5 / 0.03
	// kellyStep is the Euler step per accepted feedback, the router
	// interval T.
	kellyStep = 30 * time.Millisecond
)

// Kelly is the continuous-feedback Kelly controller of paper eq. (7) — the
// application-friendly form from Dai & Loguinov that MKC discretizes:
//
//	dr/dt = α − β·p(t)·r(t)
//
// Euler-integrated with step kellyStep per accepted feedback epoch. Its
// fixed point under the router feedback law is the same r* = C/N + α/β as
// MKC (plug p = (R−C)/R into α = βpr), but the transient is a continuous
// relaxation rather than MKC's one-jump-per-epoch updates, and stability
// depends on the step size: β·p·step must stay below 2.
type Kelly struct {
	rate  units.BitRate
	loss  float64
	fresh freshness
}

var _ Controller = (*Kelly)(nil)

// NewKelly returns a controller at the baselines' initial rate.
func NewKelly() *Kelly { return &Kelly{rate: baselineInitialRate} }

// OnFeedback implements Controller.
func (k *Kelly) OnFeedback(fb packet.Feedback) bool {
	if !k.fresh.accept(fb) {
		return false
	}
	k.loss = fb.Loss
	h := kellyStep.Seconds()
	delta := h * (float64(kellyAlpha) - kellyBeta*fb.Loss*float64(k.rate))
	k.rate = clampRate(k.rate+units.BitRate(delta), baselineMinRate, 0)
	return true
}

// Rate implements Controller.
func (k *Kelly) Rate() units.BitRate { return k.rate }

// LastLoss implements Controller.
func (k *Kelly) LastLoss() float64 { return k.loss }
