package experiments

import (
	"strings"
	"testing"
	"time"

	"repro/internal/stats"
)

// TestFormattersRenderAllFields smoke-checks every experiment formatter on
// synthetic results, so a formatting regression can't hide behind the slow
// full-stack drivers.
func TestFormattersRenderAllFields(t *testing.T) {
	rates := stats.NewTimeSeries("r")
	f9 := FormatFigure9(&Figure9Result{
		Rates: []*stats.TimeSeries{rates}, F1Peak: 2000, Capacity: 2e6, FairRate: 1.04e6,
		F1Tail: 1040, F2Tail: 1041, ConvergedAt: 23 * time.Second, JoinAt: 10 * time.Second,
	})
	for _, want := range []string{"F1 peak", "fair within 10%", "13.0s after"} {
		if !strings.Contains(f9, want) {
			t.Errorf("FormatFigure9 missing %q:\n%s", want, f9)
		}
	}
	f9never := FormatFigure9(&Figure9Result{Rates: nil, ConvergedAt: -1})
	if !strings.Contains(f9never, "did not reach") {
		t.Errorf("FormatFigure9 without convergence:\n%s", f9never)
	}

	f10 := FormatFigure10([]Figure10Run{{
		NumFlows: 2, TargetLoss: 0.107, PELSLoss: 0.106, BELoss: 0.11, Frames: 200,
		BaseMean: 28.8, PELSMean: 46.6, BEMean: 34.7,
		PELSImprove: 61, BEImprove: 21, PELSSwing: 12, BESwing: 23,
		PELSUtility: 0.93, BEUtility: 0.11, PELSUseful: 63, BEUseful: 7,
	}})
	for _, want := range []string{"base-only", "best-effort", "PELS", "+61.0%"} {
		if !strings.Contains(f10, want) {
			t.Errorf("FormatFigure10 missing %q:\n%s", want, f10)
		}
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
