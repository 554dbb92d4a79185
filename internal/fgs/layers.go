package fgs

import (
	"repro/internal/packet"
)

// LayerPlan is the N-layer generalization of PacketPlan: the packets to
// transmit for one video frame, split across N ordered priority layers.
// Counts[0] is the base layer (always the full base layer), Counts[N-1]
// the top (probe) layer. The paper's 3-color plan is the N=3 instance:
// Sender, the one end-host loop, plans every frame this way, through
// PlanLadder. PacketPlan and PlanShare remain as the 3-color reference the
// N=3 plan is pinned against.
type LayerPlan struct {
	Frame  int
	Counts []int
}

// Total returns the number of packets in the plan.
func (p LayerPlan) Total() int {
	n := 0
	for _, c := range p.Counts {
		n += c
	}
	return n
}

// Layer returns the priority layer of the packet at the given index within
// the frame (base layer first, then each enhancement layer in order). Like
// PacketPlan.Color, it panics when index is outside [0, Total()).
func (p LayerPlan) Layer(index int) int {
	if index < 0 {
		panic("fgs: packet index out of plan range")
	}
	rest := index
	for layer, c := range p.Counts {
		if rest < c {
			return layer
		}
		rest -= c
	}
	panic("fgs: packet index out of plan range")
}

// PlanLadder plans frame into plan, split into N = len(plan.Counts) layers
// by the single controller γ: the one frame plan, which Sender runs for
// both end hosts. It panics unless 2 ≤ N ≤ packet.MaxLayers, and costs no
// allocation.
//
// The base layer is always sent in full; the enhancement prefix uses the
// remaining budget up to R_max. Split point ℓ = 1…N−1 is the share of the
// plan denominator (the enhancement prefix, or the whole frame under
// RedShareTotal) assigned to layers ≥ ℓ. It runs linearly from e, the
// enhancement's own share of the denominator (split point 1), down to γ
// (the top probe layer, split point N−1), so every layer between them has
// packets once the spacing is a packet or more. Each split point is rounded
// exactly as PlanShare rounds red (⌊s·denom+0.5⌋), the top layer keeps the
// ≥1-packet probe rule whenever γ > 0 and any enhancement is sent, and
// cumulative counts are clamped monotone so no layer count is negative. At
// N = 3 the split points are {e, γ} and the plan is byte-identical to
// PlanShare; under RedShareEnhancement, e = 1.
//
//pelsvet:noalloc
func (pk *Packetizer) PlanLadder(plan *LayerPlan, frame int, budgetBytes int, gamma float64, share RedShare) {
	counts := plan.Counts
	n := len(counts)
	if n < 2 || n > packet.MaxLayers {
		panic("fgs: layer count out of range")
	}
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
	e := 1.0
	if denom > 0 {
		e = float64(enhPkts) / float64(denom)
	}
	plan.Frame = frame
	counts[0] = pk.spec.GreenPackets
	// cum is the packet count of layers ≥ ℓ, computed bottom-up and
	// clamped so it never exceeds the count of the layer range below it.
	prev := enhPkts
	for l := 1; l < n; l++ {
		// Both endpoints are pinned exactly: the interpolation rounds away
		// from γ in floating point, and the N=3 ⇒ PlanShare equivalence is
		// exact only if the top split point IS γ, bit for bit.
		var g float64
		switch {
		case l == n-1:
			g = gamma
		case l == 1:
			g = e
		default:
			g = e + (gamma-e)*float64(l-1)/float64(n-2)
		}
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
	// counts[l] currently holds cum(l); convert to per-layer counts
	// top-down: layer l gets cum(l) − cum(l+1).
	for l := 1; l < n-1; l++ {
		counts[l] -= counts[l+1]
	}
}
