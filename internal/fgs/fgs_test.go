package fgs

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/packet"
)

func TestFrameSpecDerivedSizes(t *testing.T) {
	s := DefaultFrameSpec()
	if s.BaseBytes() != 10500 {
		t.Errorf("BaseBytes = %d, want 10500", s.BaseBytes())
	}
	if s.EnhPackets() != 105 {
		t.Errorf("EnhPackets = %d, want 105", s.EnhPackets())
	}
	if s.MaxEnhBytes() != 52500 {
		t.Errorf("MaxEnhBytes = %d, want 52500", s.MaxEnhBytes())
	}
	if s.FrameBytes() != 63000 {
		t.Errorf("FrameBytes = %d, want 63000", s.FrameBytes())
	}
}

func TestFrameSpecRates(t *testing.T) {
	s := DefaultFrameSpec()
	// 63000 B per 500 ms = 1.008 mb/s.
	if got := s.MaxRate(500 * time.Millisecond); math.Abs(got.KbpsValue()-1008) > 1e-9 {
		t.Errorf("MaxRate = %v, want 1008 kb/s", got)
	}
	if got := s.BaseRate(500 * time.Millisecond); math.Abs(got.KbpsValue()-168) > 1e-9 {
		t.Errorf("BaseRate = %v, want 168 kb/s", got)
	}
}

func TestFrameSpecValidate(t *testing.T) {
	bad := []FrameSpec{
		{PacketSize: 0, TotalPackets: 10, GreenPackets: 1},
		{PacketSize: 500, TotalPackets: 0, GreenPackets: 0},
		{PacketSize: 500, TotalPackets: 10, GreenPackets: 11},
		{PacketSize: 500, TotalPackets: 10, GreenPackets: -1},
	}
	for _, s := range bad {
		if s.Validate() == nil {
			t.Errorf("Validate(%+v) = nil, want error", s)
		}
	}
	if err := DefaultFrameSpec().Validate(); err != nil {
		t.Errorf("default spec invalid: %v", err)
	}
}

func TestGammaConvergesToFixedPoint(t *testing.T) {
	// Lemma 4: with stationary loss p, γ → p/p_thr.
	g := MustNewGamma(DefaultGammaConfig())
	for i := 0; i < 100; i++ {
		g.Update(0.15)
	}
	want := 0.15 / 0.75
	if math.Abs(g.Value()-want) > 1e-6 {
		t.Errorf("gamma = %v, want %v", g.Value(), want)
	}
}

func TestGammaDecaysToFloorWithoutLoss(t *testing.T) {
	g := MustNewGamma(DefaultGammaConfig())
	for i := 0; i < 50; i++ {
		g.Update(-0.5) // negative feedback = spare capacity
	}
	if g.Value() != 0.05 {
		t.Errorf("gamma = %v, want floor 0.05", g.Value())
	}
}

func TestGammaClampUpper(t *testing.T) {
	g := MustNewGamma(DefaultGammaConfig())
	for i := 0; i < 50; i++ {
		g.Update(0.9) // p/p_thr = 1.2 → clamp at 1
	}
	if g.Value() != 1 {
		t.Errorf("gamma = %v, want clamp at 1", g.Value())
	}
}

// TestGammaStabilityLemma: for any σ in (0,2) and loss p, the clamp-free
// controller converges to p/p_thr (Lemmas 2-4); for σ > 2 it diverges.
func TestGammaStabilityLemma(t *testing.T) {
	f := func(sigmaRaw, lossRaw uint8) bool {
		sigma := 0.05 + 1.9*float64(sigmaRaw)/256 // (0.05, 1.95)
		p := 0.7 * float64(lossRaw) / 255         // [0, 0.7]
		g := MustNewGamma(GammaConfig{Sigma: sigma, PThr: 0.75, Initial: 0.5, Clamp: false})
		for i := 0; i < 3000; i++ {
			g.Update(p)
		}
		return math.Abs(g.Value()-p/0.75) < 1e-3
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(21))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}

	// σ = 3 diverges (|1−σ| = 2 > 1); Validate only admits it via the
	// explicit open-loop opt-out.
	g := MustNewGamma(GammaConfig{Sigma: 3, PThr: 0.75, Initial: 0.05, Clamp: false, AllowUnstable: true})
	for i := 0; i < 30; i++ {
		g.Update(0.5)
	}
	if math.Abs(g.Value()) < 100 {
		t.Errorf("sigma=3 controller did not diverge: gamma = %v", g.Value())
	}
}

func TestGammaNegativeLossTreatedAsZero(t *testing.T) {
	g := MustNewGamma(GammaConfig{Sigma: 0.5, PThr: 0.75, Initial: 0.5, Clamp: false})
	g2 := MustNewGamma(GammaConfig{Sigma: 0.5, PThr: 0.75, Initial: 0.5, Clamp: false})
	g.Update(-2)
	g2.Update(0)
	if g.Value() != g2.Value() {
		t.Errorf("Update(-2) = %v, Update(0) = %v; negative loss must clamp to 0", g.Value(), g2.Value())
	}
}

func TestGammaConfigValidation(t *testing.T) {
	bad := []GammaConfig{
		{Sigma: 0.5, PThr: 0, Initial: 0.5},
		{Sigma: 0.5, PThr: 1.5, Initial: 0.5},
		{Sigma: 0.5, PThr: 0.75, Initial: 0.5, Clamp: true, Min: 0.9, Max: 0.1},
		{Sigma: 0.5, PThr: 0.75, Initial: 0.5, Clamp: true, Min: -0.1, Max: 1},
	}
	for _, cfg := range bad {
		if _, err := NewGamma(cfg); err == nil {
			t.Errorf("NewGamma(%+v) succeeded, want error", cfg)
		}
	}
}

// TestGammaConfigSigmaStabilityBound: Validate enforces 0 < σ < 2 (paper
// Lemmas 2-3) unless the open-loop AllowUnstable opt-out is set.
func TestGammaConfigSigmaStabilityBound(t *testing.T) {
	cases := []struct {
		cfg GammaConfig
		ok  bool
	}{
		{GammaConfig{Sigma: 0, PThr: 0.75, Initial: 0.5}, false},
		{GammaConfig{Sigma: -0.5, PThr: 0.75, Initial: 0.5}, false},
		{GammaConfig{Sigma: 2, PThr: 0.75, Initial: 0.5}, false},
		{GammaConfig{Sigma: 3, PThr: 0.75, Initial: 0.5}, false},
		{GammaConfig{Sigma: 0.001, PThr: 0.75, Initial: 0.5}, true},
		{GammaConfig{Sigma: 0.5, PThr: 0.75, Initial: 0.5}, true},
		{GammaConfig{Sigma: 1.999, PThr: 0.75, Initial: 0.5}, true},
		{GammaConfig{Sigma: 0, PThr: 0.75, Initial: 0.5, AllowUnstable: true}, true},
		{GammaConfig{Sigma: 3, PThr: 0.75, Initial: 0.5, AllowUnstable: true}, true},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if tc.ok && err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", tc.cfg, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("Validate(%+v) succeeded, want stability error", tc.cfg)
		}
	}
}

// TestGammaStationaryPoint: γ* = p/p_thr is eq. 4's stationary point — an
// update at γ* under loss p leaves γ there — and a γ off it moves toward it.
func TestGammaStationaryPoint(t *testing.T) {
	cfg := DefaultGammaConfig()
	cfg.Initial = 0.15 / cfg.PThr
	g := MustNewGamma(cfg)
	if got := g.Update(0.15); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("update at γ* = 0.2 moved γ to %v", got)
	}
	cfg.Initial = 0.5
	g = MustNewGamma(cfg)
	if got := g.Update(0.15); got >= 0.5 || got <= 0.2 {
		t.Errorf("update from 0.5 went to %v, want inside (0.2, 0.5)", got)
	}
}

func TestPacketizerPlanBudget(t *testing.T) {
	pk := MustNewPacketizer(DefaultFrameSpec())
	// Budget for base + 40 enhancement packets.
	budget := 10500 + 40*500
	plan := pk.PlanShare(0, budget, 0, RedShareTotal)
	if plan.Green != 21 {
		t.Errorf("Green = %d, want 21", plan.Green)
	}
	if (plan.Yellow + plan.Red) != 40 {
		t.Errorf("enhancement packets = %d, want 40", (plan.Yellow + plan.Red))
	}
	if plan.Red != 0 || plan.Yellow != 40 {
		t.Errorf("gamma=0 plan: yellow/red = %d/%d, want 40/0", plan.Yellow, plan.Red)
	}
}

func TestPacketizerBaseAlwaysSent(t *testing.T) {
	pk := MustNewPacketizer(DefaultFrameSpec())
	plan := pk.PlanShare(0, 0, 0.5, RedShareTotal)
	if plan.Green != 21 || (plan.Yellow+plan.Red) != 0 {
		t.Errorf("zero-budget plan = %+v, want base only", plan)
	}
}

func TestPacketizerBudgetCapAtRmax(t *testing.T) {
	pk := MustNewPacketizer(DefaultFrameSpec())
	plan := pk.PlanShare(0, 10_000_000, 0, RedShareTotal)
	if plan.Total() != 126 {
		t.Errorf("plan total = %d, want full frame 126", plan.Total())
	}
}

func TestPacketizerRedShareSemantics(t *testing.T) {
	pk := MustNewPacketizer(DefaultFrameSpec())
	budget := 10500 + 100*500 // base + 100 enh packets → 121 total
	gamma := 0.2

	enh := pk.PlanShare(0, budget, gamma, RedShareEnhancement)
	if enh.Red != 20 {
		t.Errorf("enhancement share: red = %d, want 20 (0.2×100)", enh.Red)
	}
	tot := pk.PlanShare(0, budget, gamma, RedShareTotal)
	if tot.Red != 24 {
		t.Errorf("total share: red = %d, want 24 (0.2×121 rounded)", tot.Red)
	}
	for _, p := range []PacketPlan{enh, tot} {
		if p.Green+p.Yellow+p.Red != 121 {
			t.Errorf("plan does not conserve packets: %+v", p)
		}
	}
}

func TestPacketizerAtLeastOneRedProbe(t *testing.T) {
	pk := MustNewPacketizer(DefaultFrameSpec())
	plan := pk.PlanShare(0, 10500+3*500, 0.01, RedShareTotal)
	if plan.Red != 1 {
		t.Errorf("red = %d, want 1 probe even for tiny gamma", plan.Red)
	}
}

func TestPacketizerRedClippedToEnhancement(t *testing.T) {
	pk := MustNewPacketizer(DefaultFrameSpec())
	// High gamma with small enhancement: red can never exceed enh count.
	plan := pk.PlanShare(0, 10500+5*500, 0.9, RedShareTotal)
	if plan.Red != 5 || plan.Yellow != 0 {
		t.Errorf("plan = %+v, want all 5 enh packets red", plan)
	}
}

func TestPlanColorLayout(t *testing.T) {
	plan := PacketPlan{Green: 2, Yellow: 3, Red: 2}
	want := []packet.Color{packet.Green, packet.Green, packet.Yellow, packet.Yellow, packet.Yellow, packet.Red, packet.Red}
	for i, w := range want {
		if got := plan.Color(i); got != w {
			t.Errorf("Color(%d) = %v, want %v", i, got, w)
		}
	}
}

// TestPacketizerInvariants: for any budget and gamma, plans conserve
// packets, never exceed the budget by more than the base layer, and keep
// red within the enhancement.
func TestPacketizerInvariants(t *testing.T) {
	spec := DefaultFrameSpec()
	pk := MustNewPacketizer(spec)
	f := func(budgetRaw uint32, gammaRaw uint8, overTotal bool) bool {
		budget := int(budgetRaw % 100000)
		gamma := float64(gammaRaw) / 255
		share := RedShareEnhancement
		if overTotal {
			share = RedShareTotal
		}
		plan := pk.PlanShare(0, budget, gamma, share)
		if plan.Green != spec.GreenPackets {
			return false
		}
		if plan.Yellow < 0 || plan.Red < 0 {
			return false
		}
		if (plan.Yellow + plan.Red) > spec.EnhPackets() {
			return false
		}
		// The enhancement never exceeds what the budget allows.
		if (plan.Yellow+plan.Red) > 0 && (plan.Yellow+plan.Red)*spec.PacketSize > budget-spec.BaseBytes() {
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(17))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestPlanBytes: a plan puts every colour on the wire, so its size is all
// of its packets times the packet size.
func TestPlanBytes(t *testing.T) {
	plan := PacketPlan{Green: 21, Yellow: 50, Red: 10}
	if got := plan.Total() * 500; got != 81*500 {
		t.Errorf("bytes = %d, want %d", got, 81*500)
	}
}

func TestGammaFullRedLoss(t *testing.T) {
	// Extreme: 100% red loss. p/p_thr = 1.33 exceeds the clamp, so γ
	// rails at Max and stays railed while total loss persists — every
	// frame is fully protected instead of oscillating.
	g := MustNewGamma(DefaultGammaConfig())
	for i := 0; i < 50; i++ {
		g.Update(1)
	}
	if g.Value() != 1 {
		t.Errorf("gamma = %v after sustained total loss, want 1", g.Value())
	}
	if got := g.Update(1); got != 1 {
		t.Errorf("gamma left the rail under continued total loss: %v", got)
	}
}

func TestGammaZeroRedTrafficKeepsProbing(t *testing.T) {
	// Extreme: no red traffic at all, so the router measures p = 0 for
	// the probe layer indefinitely. γ must decay to its floor but never
	// to zero — the residual red trickle is what lets the flow rediscover
	// capacity when the bottleneck clears.
	g := MustNewGamma(DefaultGammaConfig())
	for i := 0; i < 200; i++ {
		g.Update(0)
	}
	if got := g.Value(); got != 0.05 {
		t.Errorf("gamma = %v after 200 zero-loss updates, want floor 0.05", got)
	}
	if g.Value() <= 0 {
		t.Error("gamma reached zero: the flow stopped probing")
	}
}

func TestGammaResetRestoresInitial(t *testing.T) {
	// A RouterID change mid-adaptation discards the integrated loss
	// history: Reset returns γ to Initial, and the controller re-adapts
	// cleanly afterwards.
	g := MustNewGamma(DefaultGammaConfig())
	for i := 0; i < 20; i++ {
		g.Update(0.9)
	}
	if g.Value() == 0.5 {
		t.Fatal("precondition: gamma did not move from Initial")
	}
	g.Reset()
	if g.Value() != 0.5 {
		t.Errorf("Reset: gamma = %v, want Initial 0.5", g.Value())
	}
	for i := 0; i < 100; i++ {
		g.Update(0.15)
	}
	if want := 0.15 / 0.75; math.Abs(g.Value()-want) > 1e-6 {
		t.Errorf("post-reset reconvergence: gamma = %v, want %v", g.Value(), want)
	}
}
