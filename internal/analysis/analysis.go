// Package analysis implements the paper's closed-form results: the
// expected number of useful packets under Bernoulli loss (Lemma 1, eq. 1-2),
// best-effort and optimal utility (eq. 3), the PELS utility lower bound
// (eq. 6), and open-loop trajectories of the γ controller (eq. 4-5) used for
// the stability study in Fig. 5. A Monte-Carlo estimator provides the
// "Simulations" column of Table 1.
package analysis

import (
	"math"
	"math/rand"
)

// ExpectedUseful evaluates Lemma 1 (eq. 1): the expected number of useful
// (consecutively received) packets in an FGS frame under independent
// Bernoulli loss p, for a frame-size PMF q where q[k] = P(H = k+1)
// (i.e. q is indexed from size 1). Probabilities need not be normalized;
// they are treated as weights.
//
//pelsvet:allow deadexport paper-equation oracle: eq. (1), which the FGS tests check the simulator against
func ExpectedUseful(p float64, q []float64) float64 {
	if p <= 0 {
		// No loss: every transmitted packet is useful.
		mean, total := 0.0, 0.0
		for i, w := range q {
			mean += float64(i+1) * w
			total += w
		}
		if total <= 0 {
			return 0
		}
		return mean / total
	}
	if p >= 1 {
		return 0
	}
	sum, total := 0.0, 0.0
	for i, w := range q {
		k := float64(i + 1)
		sum += (1 - math.Pow(1-p, k)) * w
		total += w
	}
	if total <= 0 {
		return 0
	}
	return (1 - p) / p * sum / total
}

// ExpectedUsefulFixedH evaluates eq. (2): the fixed-frame-size special case
// E[Y] = (1−p)/p · (1 − (1−p)^H).
func ExpectedUsefulFixedH(p float64, h int) float64 {
	if h <= 0 {
		return 0
	}
	if p <= 0 {
		return float64(h)
	}
	if p >= 1 {
		return 0
	}
	return (1 - p) / p * (1 - math.Pow(1-p, float64(h)))
}

// OptimalUseful returns the useful packets under ideal preferential drops:
// all H(1−p) delivered packets are consecutive (paper §3.2).
func OptimalUseful(p float64, h int) float64 {
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	return float64(h) * (1 - p)
}

// BestEffortUtility evaluates eq. (3): U = (1 − (1−p)^H) / (Hp), the ratio
// of useful to received packets under uniform random loss.
func BestEffortUtility(p float64, h int) float64 {
	if h <= 0 {
		return 0
	}
	if p <= 0 {
		return 1
	}
	if p >= 1 {
		return 0
	}
	return (1 - math.Pow(1-p, float64(h))) / (float64(h) * p)
}

// PELSUtilityBound evaluates eq. (6): the lower bound on PELS utility when
// γ has converged and only yellow packets are assumed recoverable:
// U ≥ (1 − p/p_thr) / (1 − p).
func PELSUtilityBound(p, pthr float64) float64 {
	if pthr <= 0 || p >= 1 {
		return 0
	}
	u := (1 - p/pthr) / (1 - p)
	if u < 0 {
		return 0
	}
	if u > 1 {
		return 1
	}
	return u
}

// MonteCarloUseful estimates E[Y] by direct simulation: frames trials of H
// Bernoulli(p) packet drops, counting the consecutive received prefix. It
// produces the "Simulations" column of Table 1.
func MonteCarloUseful(p float64, h, frames int, rng *rand.Rand) float64 {
	if h <= 0 || frames <= 0 {
		return 0
	}
	total := 0
	for f := 0; f < frames; f++ {
		for i := 0; i < h; i++ {
			if rng.Float64() < p {
				break
			}
			total++
		}
	}
	return float64(total) / float64(frames)
}

// MonteCarloReceived estimates the mean number of received (not necessarily
// useful) packets per frame under Bernoulli loss — the paper's observation
// that "the decoder successfully receives 99 packets per frame" while only
// 62 are useful.
func MonteCarloReceived(p float64, h, frames int, rng *rand.Rand) float64 {
	if h <= 0 || frames <= 0 {
		return 0
	}
	total := 0
	for f := 0; f < frames; f++ {
		for i := 0; i < h; i++ {
			if rng.Float64() >= p {
				total++
			}
		}
	}
	return float64(total) / float64(frames)
}
