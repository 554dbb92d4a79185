package analysis

import "math"

// GammaTrajectory iterates the open-loop γ controller of eq. (4) without
// clamping for steps iterations under constant loss p:
//
//	γ(k) = γ(k−1) + σ·(p/p_thr − γ(k−1))
//
// The returned slice includes γ(0) at index 0. Fig. 5 plots this for
// σ ∈ {0.5, 3} with p = 0.5, p_thr = 0.75: the first converges to
// γ* = p/p_thr ≈ 0.67, the second diverges (|1−σ| > 1).
func GammaTrajectory(gamma0, sigma, p, pthr float64, steps int) []float64 {
	out := make([]float64, steps+1)
	out[0] = gamma0
	target := p / pthr
	for k := 1; k <= steps; k++ {
		out[k] = out[k-1] + sigma*(target-out[k-1])
	}
	return out
}

// GammaTrajectoryDelayed iterates the delayed controller of eq. (5) with
// feedback delay d (in control intervals):
//
//	γ(k) = γ(k−d) + σ·(p/p_thr − γ(k−d))
//
// With constant p the delayed system decomposes into d independent copies
// of eq. (4), which is why stability is delay-independent (paper Lemma 3).
//
//pelsvet:allow deadexport paper-equation oracle: eq. (5), which the γ-controller tests check against
func GammaTrajectoryDelayed(gamma0, sigma, p, pthr float64, d, steps int) []float64 {
	if d < 1 {
		d = 1
	}
	out := make([]float64, steps+1)
	target := p / pthr
	for k := 0; k <= steps; k++ {
		if k < d {
			out[k] = gamma0
			continue
		}
		out[k] = out[k-d] + sigma*(target-out[k-d])
	}
	return out
}

// GammaStable reports the Lemma 2/3 stability condition 0 < σ < 2.
//
//pelsvet:allow deadexport paper-equation oracle: Lemmas 2-3, which the γ-controller tests check against
func GammaStable(sigma float64) bool { return sigma > 0 && sigma < 2 }

// GammaFixedPoint returns γ* = p/p_thr, the stationary point of eq. (4)
// (paper §4.3).
func GammaFixedPoint(p, pthr float64) float64 {
	if pthr <= 0 {
		// A probability threshold at or below zero has no finite fixed
		// point; treat it as instantly saturating.
		return math.Inf(1)
	}
	return p / pthr
}

// Converged reports whether the tail of trajectory stays within tol of
// target for at least the final window samples.
//
//pelsvet:allow deadexport paper-equation oracle: the convergence test the stability tests apply to trajectories
func Converged(trajectory []float64, target, tol float64, window int) bool {
	if len(trajectory) < window || window <= 0 {
		return false
	}
	for _, v := range trajectory[len(trajectory)-window:] {
		if math.Abs(v-target) > tol {
			return false
		}
	}
	return true
}

// Diverged reports whether the trajectory's deviation from target grows
// beyond bound at any point.
//
//pelsvet:allow deadexport paper-equation oracle: the divergence test the stability tests apply to trajectories
func Diverged(trajectory []float64, target, bound float64) bool {
	for _, v := range trajectory {
		if math.Abs(v-target) > bound {
			return true
		}
	}
	return false
}

// MKCTrajectory iterates the single-bottleneck MKC system (eq. 8-9) in
// discrete time for n identical flows with feedback delay d control
// intervals. Faithful to eq. (8), each flow updates from its rate at the
// feedback's epoch, not its current rate:
//
//	r(k) = r(k−D) + α − β·r(k−D)·p(k−D)
//
// This base-rate choice is what makes Lemma 5's stability delay-
// independent: the system decomposes into D interleaved delay-free
// subsequences (the same argument as Lemma 3 for γ). Updating from the
// current rate r(k−1) with delayed feedback — the naive discretization —
// oscillates for moderate delays even with β < 2.
//
// The router publishes p(k) = (R(k)−C)/R(k) with R the aggregate rate.
// Rates and capacity share one arbitrary unit. The returned slice holds
// each flow's rate trajectory.
//
//pelsvet:allow deadexport paper-equation oracle: eqs. (8)-(9), which the MKC tests check against
func MKCTrajectory(n int, r0, alpha, beta, capacity float64, d, steps int) [][]float64 {
	if n <= 0 || steps <= 0 {
		return nil
	}
	if d < 1 {
		d = 1
	}
	rates := make([][]float64, n)
	for i := range rates {
		rates[i] = make([]float64, steps+1)
		rates[i][0] = r0
	}
	loss := make([]float64, steps+1)
	updateLoss := func(k int) {
		var sum float64
		for i := range rates {
			sum += rates[i][k]
		}
		if sum > 0 {
			loss[k] = (sum - capacity) / sum
		}
	}
	updateLoss(0)
	for k := 1; k <= steps; k++ {
		base := k - d
		if base < 0 {
			base = 0
		}
		p := loss[base]
		for i := range rates {
			r := rates[i][base]
			r += alpha - beta*r*p
			if r < 0 {
				r = 0
			}
			rates[i][k] = r
		}
		updateLoss(k)
	}
	return rates
}

// MKCStationaryRate returns r* = C/N + α/β (paper eq. 10).
func MKCStationaryRate(capacity, alpha, beta float64, n int) float64 {
	// Exact divide-by-zero guard: a negative β is a legal (unstable)
	// configuration the stability study sweeps through, so only β == 0
	// lacks a stationary point.
	//pelsvet:allow floateq
	if n <= 0 || beta == 0 {
		return 0
	}
	return capacity/float64(n) + alpha/beta
}

// MKCStationaryLoss returns p* = Nα / (βC + Nα), the loss at which the
// aggregate stationary rate satisfies eq. (9).
func MKCStationaryLoss(capacity, alpha, beta float64, n int) float64 {
	if n <= 0 {
		return 0
	}
	na := float64(n) * alpha
	den := beta*capacity + na
	// Exact divide-by-zero guard: βC + Nα can legitimately sit at exactly
	// zero for the degenerate sweep configurations (β < 0), and any other
	// value is a valid denominator.
	//pelsvet:allow floateq
	if den == 0 {
		return 0
	}
	return na / den
}
