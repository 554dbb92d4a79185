package fgs

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/packet"
)

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic, got none", name)
		}
	}()
	fn()
}

// TestPacketPlanColorPanicsOutOfRange is the regression test for the index
// bounds bug: Color used to silently return Red for any index ≥ Total()
// (and Green-ish nonsense for negatives), so a miscounting caller would
// emit phantom probe packets instead of crashing at the source.
func TestPacketPlanColorPanicsOutOfRange(t *testing.T) {
	pk := MustNewPacketizer(DefaultFrameSpec())
	plan := pk.PlanShare(0, DefaultFrameSpec().FrameBytes(), 0.3, RedShareTotal)
	if plan.Total() == 0 {
		t.Fatal("empty plan")
	}
	// Every in-range index must stay panic-free and ordered.
	prev := packet.Green
	for i := 0; i < plan.Total(); i++ {
		c := plan.Color(i)
		if !c.IsPELS() {
			t.Fatalf("index %d: non-PELS color %v", i, c)
		}
		if c < prev {
			t.Fatalf("index %d: color %v out of order after %v", i, c, prev)
		}
		prev = c
	}
	for _, idx := range []int{-1, -100, plan.Total(), plan.Total() + 7} {
		idx := idx
		mustPanic(t, "PacketPlan.Color", func() { plan.Color(idx) })
	}
}

// TestLayerPlanLayerPanicsOutOfRange: the N-layer lookup inherits the
// bounds check.
func TestLayerPlanLayerPanicsOutOfRange(t *testing.T) {
	pk := MustNewPacketizer(DefaultFrameSpec())
	plan := LayerPlan{Counts: make([]int, 5)}
	pk.PlanLadder(&plan, 0, DefaultFrameSpec().FrameBytes(), 0.4, RedShareTotal)
	prev := 0
	for i := 0; i < plan.Total(); i++ {
		l := plan.Layer(i)
		if l < prev || l >= len(plan.Counts) {
			t.Fatalf("index %d: layer %d out of order or range", i, l)
		}
		prev = l
	}
	for _, idx := range []int{-1, plan.Total(), plan.Total() + 3} {
		idx := idx
		mustPanic(t, "LayerPlan.Layer", func() { plan.Layer(idx) })
	}
}

// TestPlanLayersIntoPanics covers the N-layer planner's argument contract:
// PlanLadder refuses a layer count it cannot colour, too few or too many.
func TestPlanLayersIntoPanics(t *testing.T) {
	pk := MustNewPacketizer(DefaultFrameSpec())
	for _, n := range []int{0, 1, packet.MaxLayers + 1} {
		bad := LayerPlan{Counts: make([]int, n)}
		mustPanic(t, fmt.Sprintf("PlanLadder N=%d", n), func() { pk.PlanLadder(&bad, 0, 1000, 0.4, RedShareTotal) })
	}
	for _, n := range []int{2, packet.MaxLayers} {
		ok := LayerPlan{Counts: make([]int, n)}
		pk.PlanLadder(&ok, 0, 1000, 0.4, RedShareTotal)
	}
}

// checkLadder plans one frame of n layers and holds it to the ladder's
// properties:
//   - the base layer is full, no count is negative, and from N = 3 up the
//     counts add up to the base plus the enhancement packets the budget
//     buys. At N = 2 the one split point is γ, so the one enhancement layer
//     is PlanShare's red and the rest of the enhancement is not sent;
//   - at N = 3 the plan is PlanShare's, green/yellow/red;
//   - under RedShareEnhancement the plan is the one the free-standing
//     ladder (split points from 1 down to γ) gave;
//   - every layer 1…N−2 carries a packet whenever the split spacing
//     (e − γ)·denom/(N−2) is at least one packet and γ·denom rounds to at
//     least one, where e·denom is the enhancement's packet count.
//
// It returns the plan.
func checkLadder(t *testing.T, spec FrameSpec, n, budget int, gamma float64, share RedShare) LayerPlan {
	t.Helper()
	pk := MustNewPacketizer(spec)
	plan := LayerPlan{Counts: make([]int, n)}
	pk.PlanLadder(&plan, 7, budget, gamma, share)
	got := plan.Counts
	enh := 0
	if budget > spec.BaseBytes() {
		enh = min((budget-spec.BaseBytes())/spec.PacketSize, spec.EnhPackets())
	}
	denom := enh
	if share == RedShareTotal {
		denom += spec.GreenPackets
	}
	fail := func(what string) {
		t.Helper()
		t.Fatalf("N=%d share=%v γ=%v budget=%d (enh %d, denom %d): %s: %v", n, share, gamma, budget, enh, denom, what, got)
	}
	if plan.Frame != 7 || got[0] != spec.GreenPackets {
		fail("frame number or base layer")
	}
	for _, c := range got {
		if c < 0 {
			fail("negative count")
		}
	}
	ref := pk.PlanShare(7, budget, gamma, share)
	switch {
	case n == 2:
		if got[1] != ref.Red {
			fail("N=2 enhancement is not PlanShare's red")
		}
	case plan.Total() != spec.GreenPackets+enh:
		fail("counts do not add up to base + enhancement")
	case n == 3 && (got[0] != ref.Green || got[1] != ref.Yellow || got[2] != ref.Red):
		fail("N=3 plan is not PlanShare's")
	}
	if share == RedShareEnhancement {
		want, splits := make([]int, n), make([]float64, n-1)
		refLadder(splits, gamma)
		refPlanLayersInto(pk, want, budget, splits, share)
		if !slices.Equal(got, want) {
			fail(fmt.Sprint("differs from the free-standing ladder ", want))
		}
	}
	if n >= 3 && int(gamma*float64(denom)+0.5) >= 1 &&
		(float64(enh)-gamma*float64(denom))/float64(n-2) >= 1 {
		for l := 1; l <= n-2; l++ {
			if got[l] < 1 {
				fail("an empty middle layer")
			}
		}
	}
	return plan
}

// TestPlanLadderProperties sweeps N = 2…16, both shares, every
// enhancement size of the paper's frame and of a frame with no base layer,
// and γ over a 1/64 grid plus every half-packet multiple of 1/denom — where
// rounding is closest to a tie — through checkLadder.
func TestPlanLadderProperties(t *testing.T) {
	for _, spec := range []FrameSpec{DefaultFrameSpec(), {PacketSize: 100, TotalPackets: 40, GreenPackets: 0}} {
		for _, share := range []RedShare{RedShareTotal, RedShareEnhancement} {
			for enh := -1; enh <= spec.EnhPackets()+1; enh++ {
				budget := spec.BaseBytes() + enh*spec.PacketSize + spec.PacketSize/3
				denom := max(0, min(enh, spec.EnhPackets()))
				if share == RedShareTotal {
					denom += spec.GreenPackets
				}
				gammas := []float64{}
				for k := 0; k <= 64; k++ {
					gammas = append(gammas, float64(k)/64)
				}
				for k := 0; denom > 0 && k <= 2*denom; k++ {
					gammas = append(gammas, float64(k)/float64(2*denom))
				}
				for n := 2; n <= packet.MaxLayers; n++ {
					for _, g := range gammas {
						checkLadder(t, spec, n, budget, g, share)
					}
				}
			}
		}
	}
}

// TestPlanLayersMatchesPlanShare sweeps γ (out of range included), budget,
// and both share modes: the 3-layer plan must be byte-identical to the
// dedicated 3-color PlanShare — Green/Yellow/Red are exactly
// Counts[0]/[1]/[2].
func TestPlanLayersMatchesPlanShare(t *testing.T) {
	pk := MustNewPacketizer(DefaultFrameSpec())
	spec := DefaultFrameSpec()
	plan := LayerPlan{Counts: make([]int, 3)}
	for _, share := range []RedShare{RedShareTotal, RedShareEnhancement} {
		for g := -0.25; g <= 1.25; g += 0.05 {
			for budget := 0; budget <= spec.FrameBytes()+spec.PacketSize; budget += spec.PacketSize / 2 {
				ref := pk.PlanShare(7, budget, g, share)
				pk.PlanLadder(&plan, 7, budget, g, share)
				if c := plan.Counts; c[0] != ref.Green || c[1] != ref.Yellow || c[2] != ref.Red {
					t.Fatalf("share=%v γ=%v budget=%d: PlanLadder %v != PlanShare {%d %d %d}",
						share, g, budget, c, ref.Green, ref.Yellow, ref.Red)
				}
			}
		}
	}
}

// TestPlanZeroAllocs holds the frame plans at zero allocations: the 3-colour
// PlanShare, and PlanLadder at N = 8 writing into caller-owned counts.
func TestPlanZeroAllocs(t *testing.T) {
	pk := MustNewPacketizer(DefaultFrameSpec())
	budget := DefaultFrameSpec().FrameBytes() * 3 / 4
	plan := LayerPlan{Counts: make([]int, 8)}
	for _, tc := range []struct {
		name string
		run  func(i int) int // returns the base layer's count
	}{
		{"PlanShare", func(i int) int {
			return pk.PlanShare(i, budget, 0.3, RedShareTotal).Green
		}},
		{"PlanLadder/N=8", func(i int) int {
			pk.PlanLadder(&plan, i, budget, 0.3, RedShareTotal)
			return plan.Counts[0]
		}},
	} {
		i := 0
		run := func() {
			if i++; tc.run(i) == 0 {
				t.Fatalf("%s: empty base layer", tc.name)
			}
		}
		for k := 0; k < 100; k++ {
			run()
		}
		if allocs := testing.AllocsPerRun(1000, run); allocs != 0 {
			t.Errorf("%s allocates %.2f/op, want 0", tc.name, allocs)
		}
	}
}

// FuzzPlanLadder throws arbitrary budgets, γ ∈ [0, 1], layer counts, base
// layer sizes and both shares at PlanLadder and holds each plan to
// checkLadder's properties, then checks the layer layout is exhaustive,
// ordered and in range.
func FuzzPlanLadder(f *testing.F) {
	f.Add(int64(63000), float64(0.2), uint8(8), uint8(21), true)
	f.Add(int64(-5), float64(1), uint8(3), uint8(0), false)
	f.Add(int64(1<<40), float64(0), uint8(2), uint8(126), true)
	f.Add(int64(12000), float64(0.97), uint8(16), uint8(3), false)
	f.Fuzz(func(t *testing.T, budget int64, gamma float64, layers, green uint8, overTotal bool) {
		if budget > 1<<40 || budget < -(1<<40) {
			return
		}
		if !(gamma >= 0 && gamma <= 1) { // NaN and out-of-range γ are TestPlanLayersMatchesPlanShare's
			return
		}
		n := 2 + int(layers)%(packet.MaxLayers-1) // [2, MaxLayers]
		spec := FrameSpec{PacketSize: 500, TotalPackets: 126, GreenPackets: int(green) % 127}
		share := RedShareEnhancement
		if overTotal {
			share = RedShareTotal
		}
		plan := checkLadder(t, spec, n, int(budget), gamma, share)
		prev := 0
		for i := 0; i < plan.Total(); i++ {
			l := plan.Layer(i)
			if l < prev || l >= n {
				t.Fatalf("index %d: layer %d out of order/range", i, l)
			}
			prev = l
		}
	})
}
