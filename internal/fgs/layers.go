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
// N=3 ladder plan is pinned against.
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

// EnhPackets returns the number of enhancement packets (everything above
// the base layer) in the plan.
func (p LayerPlan) EnhPackets() int { return p.Total() - p.Counts[0] }

// Bytes returns the plan size given the packet size.
func (p LayerPlan) Bytes(packetSize int) int { return p.Total() * packetSize }

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

// Color returns the PELS color of the packet at the given index. It
// inherits Layer's bounds check.
func (p LayerPlan) Color(index int) packet.Color {
	return packet.LayerColor(p.Layer(index))
}

// Ladder fills dst with the default γ split-point ladder for N = len(dst)+1
// layers: split point ℓ (1-based) is the share of the plan denominator
// assigned to layers ≥ ℓ, interpolated linearly from 1 (the full
// enhancement, split point 1) down to gamma (the top probe layer, split
// point N−1). For N=3 this yields {1, γ} — exactly the single-γ paper
// controller — so a ladder-driven plan degenerates to PlanShare there.
//
//pelsvet:noalloc
func Ladder(dst []float64, gamma float64) {
	n := len(dst)
	if n == 0 {
		return
	}
	if n == 1 {
		dst[0] = gamma
		return
	}
	// Pin both endpoints exactly: 1 + (γ−1)·(n−1)/(n−1) rounds away from γ
	// in floating point, and the N=3 ⇒ {1, γ} ⇒ PlanShare equivalence is
	// exact only if the top split point IS γ, bit for bit.
	dst[0] = 1
	dst[n-1] = gamma
	for i := 1; i < n-1; i++ {
		dst[i] = 1 + (gamma-1)*float64(i)/float64(n-1)
	}
}

// PlanLadder plans frame into plan (N = len(plan.Counts) layers) with the
// default ladder driven by the single controller γ: the one frame plan,
// which Sender runs for both end hosts. The ladder lives on the stack, so
// a plan whose Counts is caller-owned costs no allocation.
//
//pelsvet:noalloc
func (pk *Packetizer) PlanLadder(plan *LayerPlan, frame int, budgetBytes int, gamma float64, share RedShare) {
	var ladder [packet.MaxLayers - 1]float64
	gammas := ladder[:len(plan.Counts)-1]
	Ladder(gammas, gamma)
	plan.Frame = frame
	pk.PlanLayersInto(plan.Counts, frame, budgetBytes, gammas, share)
}

// GammaLadder is Ladder for an N-layer plan, allocating the slice.
func GammaLadder(n int, gamma float64) []float64 {
	dst := make([]float64, n-1)
	Ladder(dst, gamma)
	return dst
}

// PlanLayers computes an N-layer plan (N = len(gammas)+1), allocating the
// counts slice. See PlanLayersInto for the split semantics.
func (pk *Packetizer) PlanLayers(frame int, budgetBytes int, gammas []float64, share RedShare) LayerPlan {
	counts := make([]int, len(gammas)+1)
	pk.PlanLayersInto(counts, frame, budgetBytes, gammas, share)
	return LayerPlan{Frame: frame, Counts: counts}
}

// PlanLayersInto computes an N-layer plan into counts, the zero-allocation
// form of PlanLayers. It requires len(counts) == len(gammas)+1 and
// 2 ≤ len(counts) ≤ packet.MaxLayers, and panics otherwise.
//
// gammas holds the N−1 cumulative split points: gammas[ℓ−1] ∈ [0,1] is the
// share of the plan denominator (the enhancement prefix, or the whole frame
// under RedShareTotal) assigned to layers ≥ ℓ. The base layer is always
// sent in full; the enhancement prefix uses the remaining budget up to
// R_max. Each split point is rounded exactly as PlanShare rounds red
// (⌊g·denom+0.5⌋), the top layer keeps the ≥1-packet probe rule whenever
// its split point is positive and any enhancement is sent, and cumulative
// counts are clamped monotone so layer counts are never negative. With the
// 3-layer ladder {1, γ} the result is byte-identical to PlanShare.
//
//pelsvet:noalloc
func (pk *Packetizer) PlanLayersInto(counts []int, frame int, budgetBytes int, gammas []float64, share RedShare) {
	n := len(counts)
	if n != len(gammas)+1 {
		panic("fgs: counts/gammas length mismatch")
	}
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
	counts[0] = pk.spec.GreenPackets
	// cum is the packet count of layers ≥ ℓ, computed bottom-up and
	// clamped so it never exceeds the count of the layer range below it.
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
	// counts[l] currently holds cum(l); convert to per-layer counts
	// top-down: layer l gets cum(l) − cum(l+1).
	for l := 1; l < n-1; l++ {
		counts[l] -= counts[l+1]
	}
}
