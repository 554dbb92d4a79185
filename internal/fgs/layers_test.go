package fgs

import (
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
	plan := pk.Plan(0, pk.Spec().FrameBytes(), 0.3)
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
	plan := pk.PlanLayers(0, pk.Spec().FrameBytes(), GammaLadder(5, 0.4), RedShareTotal)
	for i := 0; i < plan.Total(); i++ {
		l := plan.Layer(i)
		if l < 0 || l >= len(plan.Counts) {
			t.Fatalf("index %d: layer %d out of range", i, l)
		}
		if plan.Color(i) != packet.LayerColor(l) {
			t.Fatalf("index %d: Color/Layer disagree", i)
		}
	}
	for _, idx := range []int{-1, plan.Total(), plan.Total() + 3} {
		idx := idx
		mustPanic(t, "LayerPlan.Layer", func() { plan.Layer(idx) })
		mustPanic(t, "LayerPlan.Color", func() { plan.Color(idx) })
	}
}

// TestLadderEndpoints: the default ladder interpolates from the full
// enhancement down to γ, and degenerates to {1, γ} for three layers.
func TestLadderEndpoints(t *testing.T) {
	got := GammaLadder(3, 0.25)
	if len(got) != 2 || got[0] != 1 || got[1] != 0.25 {
		t.Fatalf("3-layer ladder = %v, want [1 0.25]", got)
	}
	got = GammaLadder(2, 0.25)
	if len(got) != 1 || got[0] != 0.25 {
		t.Fatalf("2-layer ladder = %v, want [0.25]", got)
	}
	got = GammaLadder(8, 0.3)
	if got[0] != 1 || got[len(got)-1] != 0.3 {
		t.Fatalf("8-layer ladder endpoints = %v, want 1 … 0.3", got)
	}
	for i := 1; i < len(got); i++ {
		if got[i] >= got[i-1] {
			t.Fatalf("ladder not strictly decreasing: %v", got)
		}
	}
}

// TestPlanLayersMatchesPlanShare sweeps γ, budget, and both share modes:
// the 3-layer ladder plan must be byte-identical to the dedicated 3-color
// PlanShare — Green/Yellow/Red are exactly Counts[0]/[1]/[2].
func TestPlanLayersMatchesPlanShare(t *testing.T) {
	pk := MustNewPacketizer(DefaultFrameSpec())
	spec := pk.Spec()
	gammas := make([]float64, 2)
	counts := make([]int, 3)
	for _, share := range []RedShare{RedShareTotal, RedShareEnhancement} {
		for g := -0.25; g <= 1.25; g += 0.05 {
			for budget := 0; budget <= spec.FrameBytes()+spec.PacketSize; budget += spec.PacketSize / 2 {
				ref := pk.PlanShare(7, budget, g, share)
				Ladder(gammas, g)
				pk.PlanLayersInto(counts, 7, budget, gammas, share)
				if counts[0] != ref.Green || counts[1] != ref.Yellow || counts[2] != ref.Red {
					t.Fatalf("share=%v γ=%v budget=%d: PlanLayers %v != PlanShare {%d %d %d}",
						share, g, budget, counts, ref.Green, ref.Yellow, ref.Red)
				}
			}
		}
	}
}

// TestPlanLayersIntoPanics covers the argument contract.
func TestPlanLayersIntoPanics(t *testing.T) {
	pk := MustNewPacketizer(DefaultFrameSpec())
	mustPanic(t, "length mismatch", func() {
		pk.PlanLayersInto(make([]int, 3), 0, 1000, make([]float64, 3), RedShareTotal)
	})
	mustPanic(t, "too few layers", func() {
		pk.PlanLayersInto(make([]int, 1), 0, 1000, nil, RedShareTotal)
	})
	mustPanic(t, "too many layers", func() {
		n := packet.MaxLayers + 1
		pk.PlanLayersInto(make([]int, n), 0, 1000, make([]float64, n-1), RedShareTotal)
	})
}

// TestPlanZeroAllocs holds the frame plans at zero allocations: the 3-colour
// PlanShare, and the N = 8 ladder with PlanLayersInto writing into
// caller-owned slices.
func TestPlanZeroAllocs(t *testing.T) {
	pk := MustNewPacketizer(DefaultFrameSpec())
	budget := pk.Spec().FrameBytes() * 3 / 4
	gammas := make([]float64, 7)
	counts := make([]int, 8)
	for _, tc := range []struct {
		name string
		run  func(i int) int // returns the base layer's count
	}{
		{"PlanShare", func(i int) int {
			return pk.PlanShare(i, budget, 0.3, RedShareTotal).Green
		}},
		{"Ladder+PlanLayersInto/N=8", func(i int) int {
			Ladder(gammas, 0.3)
			pk.PlanLayersInto(counts, i, budget, gammas, RedShareTotal)
			return counts[0]
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

// FuzzPlanLayers throws arbitrary budgets, γ values, and layer counts at
// the N-way split and checks the plan invariants: the full base layer is
// always present, no layer count is negative, layer counts sum to Total(),
// the enhancement never exceeds the spec, and the top (probe) layer never
// exceeds the enhancement.
func FuzzPlanLayers(f *testing.F) {
	f.Add(int64(63000), float64(0.2), uint8(8), true)
	f.Add(int64(-5), float64(2.5), uint8(3), false)
	f.Add(int64(1<<40), float64(-1), uint8(2), true)
	f.Add(int64(12000), float64(0.97), uint8(16), false)
	f.Fuzz(func(t *testing.T, budget int64, gamma float64, layers uint8, overTotal bool) {
		if budget > 1<<40 || budget < -(1<<40) {
			return
		}
		if gamma != gamma { // NaN gamma is meaningless input
			return
		}
		n := 2 + int(layers)%(packet.MaxLayers-1) // [2, MaxLayers]
		pk := MustNewPacketizer(DefaultFrameSpec())
		spec := pk.Spec()
		share := RedShareEnhancement
		if overTotal {
			share = RedShareTotal
		}
		plan := pk.PlanLayers(0, int(budget), GammaLadder(n, gamma), share)
		if plan.Counts[0] != spec.GreenPackets {
			t.Fatalf("base layer %d, want full %d", plan.Counts[0], spec.GreenPackets)
		}
		sum := 0
		for l, c := range plan.Counts {
			if c < 0 {
				t.Fatalf("negative count at layer %d: %v", l, plan.Counts)
			}
			sum += c
		}
		if sum != plan.Total() {
			t.Fatalf("counts sum %d != Total %d", sum, plan.Total())
		}
		if plan.EnhPackets() > spec.EnhPackets() {
			t.Fatalf("enhancement %d exceeds spec %d", plan.EnhPackets(), spec.EnhPackets())
		}
		if top := plan.Counts[n-1]; top > plan.EnhPackets() {
			t.Fatalf("top layer %d exceeds enhancement %d", top, plan.EnhPackets())
		}
		if plan.Total() > spec.TotalPackets {
			t.Fatalf("plan exceeds frame: %v", plan.Counts)
		}
		// The layer layout must be exhaustive, ordered, and in range.
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
