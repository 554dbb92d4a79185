package experiments

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestTable1MatchesModel(t *testing.T) {
	cfg := DefaultTable1Config()
	cfg.Frames = 50000
	rows := Table1(cfg)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	wantModel := []float64{99.49, 62.76, 8.99}
	for i, r := range rows {
		if math.Abs(r.Model-wantModel[i]) > 0.011 {
			t.Errorf("row %d model = %.2f, want %.2f", i, r.Model, wantModel[i])
		}
		tol := r.Model*0.02 + 0.05
		if math.Abs(r.Simulation-r.Model) > tol {
			t.Errorf("row %d: simulation %.2f vs model %.2f beyond tolerance", i, r.Simulation, r.Model)
		}
	}
	out := FormatTable1(rows)
	if !strings.Contains(out, "model (2)") {
		t.Error("format missing model column")
	}
}

func TestFigure2Shapes(t *testing.T) {
	cfg := DefaultFigure2Config()
	rows := Figure2(cfg)
	sat := (1 - cfg.Loss) / cfg.Loss
	last := rows[len(rows)-1]
	// Best-effort useful saturates at (1−p)/p.
	if math.Abs(last.BestEffortUseful-sat) > 0.01 {
		t.Errorf("BE useful at H=%d is %.2f, want saturation %.2f", last.H, last.BestEffortUseful, sat)
	}
	// Optimal grows linearly.
	if last.OptimalUseful != float64(last.H)*(1-cfg.Loss) {
		t.Errorf("optimal useful = %v", last.OptimalUseful)
	}
	// Utility decays ~1/H while optimal stays 1.
	if last.BestEffortUtility > 0.011 || last.OptimalUtility != 1 {
		t.Errorf("utilities at H=%d: %v / %v", last.H, last.BestEffortUtility, last.OptimalUtility)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].BestEffortUtility > rows[i-1].BestEffortUtility+1e-12 {
			t.Errorf("BE utility not monotonically decreasing at H=%d", rows[i].H)
		}
	}
}

func TestFigure3IdealDominatesRandom(t *testing.T) {
	res := Figure3(100, 0.1, 7)
	if res.IdealUseful < res.RandomUseful {
		t.Errorf("ideal useful %d < random useful %d", res.IdealUseful, res.RandomUseful)
	}
	if res.IdealUseful != res.H-res.RandomDropped {
		t.Errorf("ideal useful = %d, want %d", res.IdealUseful, res.H-res.RandomDropped)
	}
	nd := 0
	for _, d := range res.RandomDrops {
		if d {
			nd++
		}
	}
	if nd != res.RandomDropped {
		t.Errorf("drop bitmap count %d != %d", nd, res.RandomDropped)
	}
	out := FormatFigure3(res)
	if !strings.Contains(out, "random:") || !strings.Contains(out, "ideal:") {
		t.Error("format missing patterns")
	}
}

func TestFigure5StableVsUnstable(t *testing.T) {
	res := Figure5(DefaultFigure5Config())
	finalStable := res.Stable[len(res.Stable)-1]
	if math.Abs(finalStable-res.FixedPoint) > 1e-3 {
		t.Errorf("stable trajectory ends at %.4f, want %.4f", finalStable, res.FixedPoint)
	}
	finalUnstable := res.Unstable[len(res.Unstable)-1]
	if math.Abs(finalUnstable) < 1000 {
		t.Errorf("unstable trajectory ends at %.4f, expected divergence", finalUnstable)
	}
}

func TestFigure7Reproduction(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack simulation")
	}
	cfg := DefaultFigure7Config()
	cfg.Duration = 90 * time.Second
	runs, err := Figure7(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 {
		t.Fatalf("runs = %d", len(runs))
	}
	for _, r := range runs {
		// Loss within 15% of the closed form (paper: ~7% and ~14%).
		if math.Abs(r.MeasuredLoss-r.PredictedLoss) > r.PredictedLoss*0.15 {
			t.Errorf("n=%d: measured loss %.4f vs predicted %.4f", r.NumFlows, r.MeasuredLoss, r.PredictedLoss)
		}
		// γ converges near γ* = p*/p_thr.
		if math.Abs(r.GammaTail-r.GammaStar) > r.GammaStar*0.25 {
			t.Errorf("n=%d: gamma %.4f vs gamma* %.4f", r.NumFlows, r.GammaTail, r.GammaStar)
		}
		// Red loss converges toward p_thr = 0.75 (paper Fig. 7 right):
		// crucially it must be high (red absorbs congestion) but below 1
		// (yellow protected with a cushion).
		if r.RedLossTail < 0.55 || r.RedLossTail > 0.95 {
			t.Errorf("n=%d: red loss %.3f outside [0.55, 0.95]", r.NumFlows, r.RedLossTail)
		}
		// γ starts at 0.5 and dips to γ_low before congestion begins.
		if r.Gamma.Len() == 0 {
			t.Fatalf("n=%d: empty gamma series", r.NumFlows)
		}
		minGamma := 1.0
		for _, v := range r.Gamma.Values() {
			if v < minGamma {
				minGamma = v
			}
		}
		if minGamma > 0.06 {
			t.Errorf("n=%d: gamma never dipped to gamma_low, min %.3f", r.NumFlows, minGamma)
		}
	}
	// Higher load ⇒ higher loss and higher gamma.
	if runs[1].MeasuredLoss <= runs[0].MeasuredLoss {
		t.Error("loss not increasing with flow count")
	}
	if runs[1].GammaTail <= runs[0].GammaTail {
		t.Error("gamma not increasing with loss")
	}
}

func TestFigure8DelayOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack simulation")
	}
	cfg := DefaultFigure8Config()
	cfg.Steps = 3 // 6 flows over 150s: enough for the ordering claims
	res, err := Figure8(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's delay hierarchy: green < yellow << red.
	if !(res.GreenMean < res.YellowMean) {
		t.Errorf("green mean %.2f !< yellow mean %.2f", res.GreenMean, res.YellowMean)
	}
	if !(res.YellowMean < res.RedMean/3) {
		t.Errorf("yellow mean %.2f not well below red mean %.2f", res.YellowMean, res.RedMean)
	}
	// Green stays in the low milliseconds (paper: ~16 ms); red reaches
	// hundreds of ms (paper: up to ~400 ms).
	if res.GreenMean > 30 {
		t.Errorf("green mean %.2f ms too high", res.GreenMean)
	}
	if res.RedMean < 50 || res.RedMean > 2000 {
		t.Errorf("red mean %.2f ms outside plausible range", res.RedMean)
	}
}

func TestFigure9MKCConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack simulation")
	}
	res, err := Figure9(DefaultFigure9Config())
	if err != nil {
		t.Fatal(err)
	}
	// F1 claims (nearly) the full PELS capacity before F2 joins.
	if res.F1Peak < 0.85*res.Capacity.KbpsValue() {
		t.Errorf("F1 peak %.0f kb/s, want ≥ 85%% of %.0f", res.F1Peak, res.Capacity.KbpsValue())
	}
	// Both flows converge to a fair share near r* (paper: ~13 s after join).
	fair := res.FairRate.KbpsValue()
	for name, tail := range map[string]float64{"F1": res.F1Tail, "F2": res.F2Tail} {
		if math.Abs(tail-fair) > fair*0.12 {
			t.Errorf("%s tail %.0f kb/s, want ~%.0f", name, tail, fair)
		}
	}
	if res.ConvergedAt < 0 {
		t.Error("flows never reached sustained fairness")
	} else if after := (res.ConvergedAt - res.JoinAt).Seconds(); after > 25 {
		t.Errorf("fairness took %.1f s after join, paper reports ~13 s", after)
	}
}

func TestFigure10PELSBeatsBestEffort(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack simulation")
	}
	cfg := DefaultFigure10Config()
	cfg.Duration = 120 * time.Second
	runs, err := Figure10(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 {
		t.Fatalf("runs = %d", len(runs))
	}
	for _, r := range runs {
		// Loss levels hit their targets.
		if math.Abs(r.PELSLoss-r.TargetLoss) > r.TargetLoss*0.2 {
			t.Errorf("PELS loss %.3f vs target %.3f", r.PELSLoss, r.TargetLoss)
		}
		// PELS strictly dominates best-effort, by a wide margin
		// (paper: 60% vs 24% and 55% vs 16% improvement).
		if r.PELSImprove < 2*r.BEImprove {
			t.Errorf("n=%d: PELS +%.1f%% not ≥ 2× BE +%.1f%%", r.NumFlows, r.PELSImprove, r.BEImprove)
		}
		if r.PELSImprove < 40 {
			t.Errorf("PELS improvement %.1f%%, want ≥ 40%%", r.PELSImprove)
		}
		if r.BEImprove < 5 {
			t.Errorf("BE improvement %.1f%%, want ≥ 5%% (base layer is protected)", r.BEImprove)
		}
		// PELS utility near 1; best-effort utility collapses.
		if r.PELSUtility < 0.85 {
			t.Errorf("PELS utility %.3f", r.PELSUtility)
		}
		if r.BEUtility > 0.4 {
			t.Errorf("BE utility %.3f, want low", r.BEUtility)
		}
		// Best-effort PSNR fluctuates far more than PELS (paper: ~15 dB).
		if r.BESwing < 1.5*r.PELSSwing {
			t.Errorf("BE swing %.1f dB not well above PELS swing %.1f dB", r.BESwing, r.PELSSwing)
		}
		// All base layers intact in both schemes (green protected).
		if r.PELSComplete != r.Frames || r.BEComplete != r.Frames {
			t.Errorf("base completeness: pels %d/%d, be %d/%d",
				r.PELSComplete, r.Frames, r.BEComplete, r.Frames)
		}
	}
	// Best-effort degrades with loss; PELS barely moves (paper's headline).
	if runs[1].BEUseful > runs[0].BEUseful {
		t.Error("BE useful packets should not improve at higher loss")
	}
}

func TestTestbedValidation(t *testing.T) {
	cfg := DefaultTestbedConfig()
	cfg.NumPELS = 0
	if _, err := NewTestbed(cfg); err == nil {
		t.Error("NumPELS=0 accepted")
	}
}

func TestPELSCapacityShare(t *testing.T) {
	cfg := DefaultTestbedConfig()
	if got := cfg.PELSCapacity().MbpsValue(); math.Abs(got-2) > 1e-9 {
		t.Errorf("PELS capacity = %v mb/s, want 2", got)
	}
	cfg.Bottleneck.PELSWeight = 3
	cfg.Bottleneck.InternetWeight = 1
	if got := cfg.PELSCapacity().MbpsValue(); math.Abs(got-3) > 1e-9 {
		t.Errorf("PELS capacity = %v mb/s, want 3", got)
	}
}

func TestFormatters(t *testing.T) {
	// Smoke-check every formatter produces non-empty output with headers.
	if out := FormatFigure2(DefaultFigure2Config(), Figure2(DefaultFigure2Config())); !strings.Contains(out, "BE utility") {
		t.Error("FormatFigure2")
	}
	if out := FormatFigure5(Figure5(DefaultFigure5Config())); !strings.Contains(out, "sigma=3") {
		t.Error("FormatFigure5")
	}
}
