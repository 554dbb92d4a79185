package fgs

// refLadder and refPlanLayersInto are the N-layer planner as it was before
// PlanLadder worked out its own split points: a ladder drawn from 1 down to
// γ without knowing the plan's denominator, applied by a separate split.
// Under RedShareEnhancement the enhancement's share of the denominator is
// 1, so PlanLadder must equal them there bit for bit.

// refLadder fills dst with N−1 = len(dst) split points from 1 down to gamma.
func refLadder(dst []float64, gamma float64) {
	n := len(dst)
	if n == 0 {
		return
	}
	if n == 1 {
		dst[0] = gamma
		return
	}
	dst[0] = 1
	dst[n-1] = gamma
	for i := 1; i < n-1; i++ {
		dst[i] = 1 + (gamma-1)*float64(i)/float64(n-1)
	}
}

// refPlanLayersInto plans counts (N = len(gammas)+1 layers) from the
// cumulative split points gammas.
func refPlanLayersInto(pk *Packetizer, counts []int, budgetBytes int, gammas []float64, share RedShare) {
	n := len(counts)
	enhBudget := budgetBytes - pk.spec.BaseBytes()
	enhPkts := 0
	if enhBudget > 0 {
		enhPkts = enhBudget / pk.spec.PacketSize
		if max := pk.spec.EnhPackets(); enhPkts > max {
			enhPkts = max
		}
	}
	denom := enhPkts
	if share == RedShareTotal {
		denom = pk.spec.GreenPackets + enhPkts
	}
	counts[0] = pk.spec.GreenPackets
	prev := enhPkts
	for l := 1; l < n; l++ {
		g := gammas[l-1]
		if g < 0 {
			g = 0
		}
		if g > 1 {
			g = 1
		}
		cum := int(g*float64(denom) + 0.5)
		if l == n-1 && cum == 0 && g > 0 && enhPkts > 0 {
			cum = 1
		}
		if cum > prev {
			cum = prev
		}
		counts[l] = cum
		prev = cum
	}
	for l := 1; l < n-1; l++ {
		counts[l] -= counts[l+1]
	}
}
