package cc

import (
	"math"
	"time"

	"repro/internal/packet"
	"repro/internal/units"
)

// TFRC's constants, for the paper's topology: 500-byte packets and a
// ~40 ms RTT.
const (
	// tfrcSegmentSize is S in bytes.
	tfrcSegmentSize = 500
	tfrcRTT         = 40 * time.Millisecond
	tfrcRTO         = 4 * tfrcRTT
	// tfrcLossEWMA weights new feedback into the smoothed loss estimate.
	tfrcLossEWMA = 0.25
	// tfrcSmoothing bounds the per-update rate movement toward the
	// equation rate: halfway each control interval.
	tfrcSmoothing = 0.5
	// tfrcMinLoss floors the loss estimate so the equation stays finite at
	// p → 0, capping the equation rate instead of letting it diverge.
	tfrcMinLoss = 1e-4
)

// TFRC is an equation-based controller in the spirit of TFRC (Floyd &
// Padhye, SIGCOMM 2000), which the paper lists among the smooth multimedia
// controllers (§5). The sending rate tracks the TCP throughput equation at
// the measured loss rate:
//
//	r(p) = S / (RTT·√(2p/3) + t_RTO·3·√(3p/8)·p·(1+32p²))
//
// Loss comes from the same router feedback as MKC (an EWMA stands in for
// TFRC's loss-event-interval estimator); the RTT is a constant, matching
// our fixed-topology simulations. Rate moves toward r(p) with a smoothing
// factor rather than jumping, as TFRC's slow-start/convergence rules do.
type TFRC struct {
	rate  units.BitRate
	loss  float64 // smoothed loss estimate
	last  float64 // last raw feedback
	fresh freshness
}

var _ Controller = (*TFRC)(nil)

// NewTFRC returns a controller at the baselines' initial rate.
func NewTFRC() *TFRC { return &TFRC{rate: baselineInitialRate, loss: tfrcMinLoss} }

// equationRate returns the TCP throughput equation evaluated at loss p.
func equationRate(p float64) units.BitRate {
	if p < tfrcMinLoss {
		p = tfrcMinLoss
	}
	if p > 1 {
		p = 1
	}
	rtt := tfrcRTT.Seconds()
	rto := tfrcRTO.Seconds()
	den := rtt*math.Sqrt(2*p/3) + rto*3*math.Sqrt(3*p/8)*p*(1+32*p*p)
	if den <= 0 {
		return 0
	}
	return units.BitRate(tfrcSegmentSize * 8 / den)
}

// OnFeedback implements Controller.
func (t *TFRC) OnFeedback(fb packet.Feedback) bool {
	if !t.fresh.accept(fb) {
		return false
	}
	t.last = fb.Loss
	raw := fb.Loss
	if raw < 0 {
		raw = 0
	}
	t.loss += tfrcLossEWMA * (raw - t.loss)
	target := equationRate(t.loss)
	next := t.rate + units.BitRate(tfrcSmoothing*float64(target-t.rate))
	t.rate = clampRate(next, baselineMinRate, 0)
	return true
}

// Rate implements Controller.
func (t *TFRC) Rate() units.BitRate { return t.rate }

// LastLoss implements Controller.
func (t *TFRC) LastLoss() float64 { return t.last }
