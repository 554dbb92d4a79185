package cc

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/packet"
	"repro/internal/units"
)

func fb(router int, epoch uint64, loss float64) packet.Feedback {
	return packet.Feedback{RouterID: router, Epoch: epoch, Loss: loss, Valid: true}
}

func TestMKCUpdateEquation(t *testing.T) {
	m := NewMKC(MKCConfig{
		Alpha:       20 * units.Kbps,
		Beta:        0.5,
		InitialRate: 1000 * units.Kbps,
		MinRate:     units.Kbps,
		DedupEpochs: true,
	})
	// r' = r + α − β·r·p = 1000 + 20 − 0.5·1000·0.1 = 970 kb/s.
	if !m.OnFeedback(fb(1, 1, 0.1)) {
		t.Fatal("fresh feedback rejected")
	}
	if got := m.Rate().KbpsValue(); math.Abs(got-970) > 1e-9 {
		t.Errorf("rate = %v kb/s, want 970", got)
	}
	if m.LastLoss() != 0.1 {
		t.Errorf("LastLoss = %v, want 0.1", m.LastLoss())
	}
}

func TestMKCNegativeLossGrowsMultiplicatively(t *testing.T) {
	m := NewMKC(MKCConfig{
		Alpha:       20 * units.Kbps,
		Beta:        0.5,
		InitialRate: 100 * units.Kbps,
		MinRate:     units.Kbps,
		DedupEpochs: true,
	})
	// p = −1: r' = r + α + β·r = 100 + 20 + 50 = 170.
	m.OnFeedback(fb(1, 1, -1))
	if got := m.Rate().KbpsValue(); math.Abs(got-170) > 1e-9 {
		t.Errorf("rate = %v kb/s, want 170", got)
	}
}

func TestMKCEpochDedup(t *testing.T) {
	m := NewMKC(DefaultMKCConfig())
	if !m.OnFeedback(fb(1, 5, 0.1)) {
		t.Fatal("first feedback rejected")
	}
	r := m.Rate()
	if m.OnFeedback(fb(1, 5, 0.1)) {
		t.Error("duplicate epoch accepted")
	}
	if m.OnFeedback(fb(1, 4, 0.1)) {
		t.Error("older epoch accepted")
	}
	if m.Rate() != r {
		t.Error("rate changed on stale feedback")
	}
	if !m.OnFeedback(fb(1, 6, 0.1)) {
		t.Error("newer epoch rejected")
	}
}

func TestMKCBottleneckShiftResetsEpochs(t *testing.T) {
	m := NewMKC(DefaultMKCConfig())
	m.OnFeedback(fb(1, 100, 0.1))
	// A different router with a lower epoch must still be accepted: epoch
	// spaces are per-router.
	if !m.OnFeedback(fb(2, 3, 0.1)) {
		t.Error("feedback from new bottleneck rejected")
	}
}

// TestMKCStaleDuplicateAfterRouteChange is the regression test for the
// reorder-injector failure mode: after the bottleneck shifts from router
// 1 to router 2, a reordered stale duplicate of router 1's old label
// must be rejected — the pre-fix rule only deduplicated against the
// *current* router, so the duplicate both rewound the rate state and
// reinstated router 1 as the bottleneck, flip-flopping the controller.
func TestMKCStaleDuplicateAfterRouteChange(t *testing.T) {
	m := NewMKC(DefaultMKCConfig())
	if !m.OnFeedback(fb(1, 100, 0.2)) {
		t.Fatal("initial feedback rejected")
	}
	if !m.OnFeedback(fb(2, 3, 0.1)) {
		t.Fatal("route change feedback rejected")
	}
	r := m.Rate()
	// Stale duplicates of either router's already-applied epochs.
	for _, stale := range []packet.Feedback{
		fb(1, 100, 0.9), // exact duplicate from the old router
		fb(1, 99, 0.9),  // older epoch from the old router
		fb(2, 3, 0.9),   // exact duplicate from the new router
		fb(2, 2, 0.9),   // older epoch from the new router
	} {
		if m.OnFeedback(stale) {
			t.Errorf("stale duplicate %+v accepted after route change", stale)
		}
	}
	if m.Rate() != r {
		t.Errorf("rate changed on stale duplicates: %v -> %v", r, m.Rate())
	}
	// Flapping back to router 1 with genuinely new epochs still works.
	if !m.OnFeedback(fb(1, 101, 0.1)) {
		t.Error("fresh feedback from the old router rejected after flap back")
	}
}

// TestMKCRouterRestartAccepted: a backward epoch jump far beyond the
// reorder horizon means the router restarted and reset its epoch counter;
// the source must re-adopt it rather than deadlock on "stale" labels.
func TestMKCRouterRestartAccepted(t *testing.T) {
	m := NewMKC(DefaultMKCConfig())
	m.OnFeedback(fb(1, 100000, 0.1))
	if m.OnFeedback(fb(1, 100000-64, 0.1)) {
		t.Error("epoch within the reorder slack accepted")
	}
	if !m.OnFeedback(fb(1, 1, 0.1)) {
		t.Error("post-restart epoch 1 rejected — sender would deadlock")
	}
	if !m.OnFeedback(fb(1, 2, 0.1)) {
		t.Error("epoch 2 after restart re-adoption rejected")
	}
}

func TestMKCDedupDisabled(t *testing.T) {
	cfg := DefaultMKCConfig()
	cfg.DedupEpochs = false
	m := NewMKC(cfg)
	if !m.OnFeedback(fb(1, 5, 0.1)) || !m.OnFeedback(fb(1, 5, 0.1)) {
		t.Error("repeated feedback rejected with dedup disabled")
	}
	// Both repeats stepped the rate, as two fresh epochs do with dedup on.
	ref := NewMKC(DefaultMKCConfig())
	ref.OnFeedback(fb(1, 5, 0.1))
	ref.OnFeedback(fb(1, 6, 0.1))
	if m.Rate() != ref.Rate() {
		t.Errorf("rate %v after two repeated labels, want %v (two steps)", m.Rate(), ref.Rate())
	}
}

func TestMKCInvalidFeedbackIgnored(t *testing.T) {
	m := NewMKC(DefaultMKCConfig())
	if m.OnFeedback(packet.Feedback{}) {
		t.Error("invalid feedback accepted")
	}
}

func TestMKCRateClamping(t *testing.T) {
	m := NewMKC(MKCConfig{
		Alpha:       10 * units.Kbps,
		Beta:        0.5,
		InitialRate: 100 * units.Kbps,
		MinRate:     90 * units.Kbps,
		MaxRate:     120 * units.Kbps,
		DedupEpochs: true,
	})
	m.OnFeedback(fb(1, 1, 1)) // big decrease: 100+10−50 = 60 → clamp 90
	if got := m.Rate().KbpsValue(); got != 90 {
		t.Errorf("rate = %v, want clamp at 90", got)
	}
	m.OnFeedback(fb(1, 2, -1)) // big increase: 90+10+45 = 145 → clamp 120
	if got := m.Rate().KbpsValue(); got != 120 {
		t.Errorf("rate = %v, want clamp at 120", got)
	}
}

// TestMKCConvergesToStationaryRate iterates N controllers against the
// analytic feedback law and verifies Lemma 6: r* = C/N + α/β, no
// oscillation in steady state.
func TestMKCConvergesToStationaryRate(t *testing.T) {
	const n = 4
	capacity := 2000.0 // kb/s
	cfg := MKCConfig{
		Alpha:       20 * units.Kbps,
		Beta:        0.5,
		InitialRate: 128 * units.Kbps,
		MinRate:     units.Kbps,
		DedupEpochs: true,
	}
	ctrls := make([]*MKC, n)
	for i := range ctrls {
		ctrls[i] = NewMKC(cfg)
	}
	var loss float64
	for k := uint64(1); k <= 500; k++ {
		var sum float64
		for _, c := range ctrls {
			sum += c.Rate().KbpsValue()
		}
		if sum > 0 {
			loss = (sum - capacity) / sum
		}
		for _, c := range ctrls {
			c.OnFeedback(fb(1, k, loss))
		}
	}
	want := cfg.StationaryRate(2000*units.Kbps, n).KbpsValue()
	for i, c := range ctrls {
		got := c.Rate().KbpsValue()
		if math.Abs(got-want) > want*0.01 {
			t.Errorf("flow %d rate = %.1f, want %.1f ± 1%%", i, got, want)
		}
	}
	wantLoss := cfg.StationaryLoss(2000*units.Kbps, n)
	if math.Abs(loss-wantLoss) > 0.01 {
		t.Errorf("equilibrium loss = %.4f, want %.4f", loss, wantLoss)
	}
}

// TestMKCNoSteadyStateOscillation: after convergence the rate stays fixed
// (unlike AIMD), the property the paper highlights in §5.1.
func TestMKCNoSteadyStateOscillation(t *testing.T) {
	cfg := MKCConfig{Alpha: 20 * units.Kbps, Beta: 0.5, InitialRate: 128 * units.Kbps, MinRate: units.Kbps, DedupEpochs: true}
	c := NewMKC(cfg)
	capacity := 1000.0
	for k := uint64(1); k <= 300; k++ {
		r := c.Rate().KbpsValue()
		loss := (r - capacity) / r
		c.OnFeedback(fb(1, k, loss))
	}
	var rates []float64
	for k := uint64(301); k <= 320; k++ {
		r := c.Rate().KbpsValue()
		loss := (r - capacity) / r
		c.OnFeedback(fb(1, k, loss))
		rates = append(rates, c.Rate().KbpsValue())
	}
	for i := 1; i < len(rates); i++ {
		if math.Abs(rates[i]-rates[i-1]) > 0.5 {
			t.Fatalf("steady-state oscillation: %.2f → %.2f", rates[i-1], rates[i])
		}
	}
}

// TestMKCStabilityBetaProperty: for random β in (0,2) the single-flow loop
// converges; Lemma 5's stability bound.
func TestMKCStabilityBetaProperty(t *testing.T) {
	f := func(betaRaw uint8) bool {
		beta := 0.1 + 1.8*float64(betaRaw)/255 // (0.1, 1.9)
		cfg := MKCConfig{Alpha: 20 * units.Kbps, Beta: beta, InitialRate: 128 * units.Kbps, MinRate: units.Kbps, DedupEpochs: true}
		c := NewMKC(cfg)
		capacity := 1000.0
		for k := uint64(1); k <= 2000; k++ {
			r := c.Rate().KbpsValue()
			loss := (r - capacity) / r
			c.OnFeedback(fb(1, k, loss))
		}
		want := cfg.StationaryRate(1000*units.Kbps, 1).KbpsValue()
		return math.Abs(c.Rate().KbpsValue()-want) < want*0.05
	}
	qc := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(13))}
	if err := quick.Check(f, qc); err != nil {
		t.Error(err)
	}
}

func TestMKCStationaryFormulas(t *testing.T) {
	cfg := DefaultMKCConfig()
	if got := cfg.StationaryRate(2*units.Mbps, 2).KbpsValue(); math.Abs(got-1040) > 1e-9 {
		t.Errorf("StationaryRate = %v, want 1040", got)
	}
	if got := cfg.StationaryLoss(2*units.Mbps, 4); math.Abs(got-80.0/1080) > 1e-12 {
		t.Errorf("StationaryLoss = %v, want %v", got, 80.0/1080)
	}
	if cfg.StationaryRate(units.Mbps, 0) != 0 || cfg.StationaryLoss(units.Mbps, 0) != 0 {
		t.Error("stationary formulas with n=0 should be 0")
	}
}

func TestMKCPanicsOnBadConfig(t *testing.T) {
	for name, cfg := range map[string]MKCConfig{
		"zero beta":    {Alpha: units.Kbps, InitialRate: units.Kbps},
		"zero initial": {Alpha: units.Kbps, Beta: 0.5},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewMKC(%s) did not panic", name)
				}
			}()
			NewMKC(cfg)
		}()
	}
}

func TestAIMDSawtooth(t *testing.T) {
	a := NewAIMD()
	r0 := a.Rate()
	a.OnFeedback(fb(1, 1, 0)) // no loss: additive increase
	if a.Rate() != r0+20*units.Kbps {
		t.Errorf("rate after increase = %v", a.Rate())
	}
	r1 := a.Rate()
	a.OnFeedback(fb(1, 2, 0.3)) // loss: halve
	if a.Rate() != units.BitRate(float64(r1)*0.5) {
		t.Errorf("rate after decrease = %v, want half of %v", a.Rate(), r1)
	}
}

func TestAIMDOscillatesInEquilibrium(t *testing.T) {
	// Driven by the same feedback law, AIMD never settles — the contrast
	// to MKC the paper draws.
	a := NewAIMD()
	capacity := 1000.0
	var rates []float64
	for k := uint64(1); k <= 500; k++ {
		r := a.Rate().KbpsValue()
		loss := (r - capacity) / r
		a.OnFeedback(fb(1, k, loss))
		if k > 400 {
			rates = append(rates, a.Rate().KbpsValue())
		}
	}
	min, max := rates[0], rates[0]
	for _, r := range rates {
		if r < min {
			min = r
		}
		if r > max {
			max = r
		}
	}
	if max-min < 100 {
		t.Errorf("AIMD tail swing = %.1f kb/s, expected a sawtooth > 100", max-min)
	}
}

func TestAIMDClampAndDedup(t *testing.T) {
	a := NewAIMD()
	a.rate = 20 * units.Kbps
	a.OnFeedback(fb(1, 1, 0.9))
	if a.Rate() != 16*units.Kbps {
		t.Errorf("rate = %v, want floor 16 kb/s", a.Rate())
	}
	if a.OnFeedback(fb(1, 1, 0.9)) {
		t.Error("duplicate epoch accepted")
	}
}
