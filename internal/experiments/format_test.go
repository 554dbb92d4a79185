package experiments

import (
	"strings"
	"testing"
)

// TestFormattersRenderAllFields checks fig9's print step on synthetic
// metrics, both when the flows became fair and when they never did: no
// seed the pinned runs use reaches the second branch.
func TestFormattersRenderAllFields(t *testing.T) {
	f9 := figure9Output(map[string]float64{
		"capacity_kbps": 2000, "fair_rate_kbps": 1040, "f1_peak_kbps": 2000,
		"f1_tail_kbps": 1040, "f2_tail_kbps": 1041, "converged_at_s": 23, "converged_after_join_s": 13,
	})
	for _, want := range []string{"2.00 mb/s", "F1 peak", "claims full capacity: true", "fair within 10%", "13.0s after", "joined at 10s"} {
		if !strings.Contains(f9, want) {
			t.Errorf("fig9 output missing %q:\n%s", want, f9)
		}
	}
	f9never := figure9Output(map[string]float64{"converged_at_s": -1e-9})
	if !strings.Contains(f9never, "did not reach") {
		t.Errorf("fig9 output without convergence:\n%s", f9never)
	}
}

// TestFormatters smoke-checks the closed-form entries' output headers.
func TestFormatters(t *testing.T) {
	for entry, want := range map[string]string{"fig2": "BE utility", "fig5": "sigma=3"} {
		if out := runAt(t, entry, seed1(0)).Output; !strings.Contains(out, want) {
			t.Errorf("%s output missing %q:\n%s", entry, want, out)
		}
	}
}
