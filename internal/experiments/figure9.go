package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/stats"
	"repro/internal/units"
)

// figure9JoinAt is when flow F2 joins the Fig. 9 run.
const figure9JoinAt = 10 * time.Second

// figure9At regenerates the MKC convergence experiment of paper Fig. 9
// (right): flow F1 starts alone, exponentially claims the whole PELS
// capacity, and after F2 joins at 10 s both converge — without oscillation
// — to a fair share near the stationary rate of eq. (10). (Fig. 9 left,
// the red-delay staircase, is the fig8 entry.) The frame interval is
// shortened so that R_max exceeds the PELS capacity and a single flow can
// claim the whole link, as in the paper. The run lasts 40 s unless the
// geometry says otherwise; converged_at_s is the first time after the join
// at which both flows stay within 10 % of each other, and negative when
// they never do.
func figure9At(g geometry) (Result, error) {
	duration := g.or(40 * time.Second)
	tcfg := DefaultTestbedConfig()
	tcfg.Seed, tcfg.NumPELS = g.seed, 2
	tcfg.StartTimes = []time.Duration{0, figure9JoinAt}
	// 126 packets × 500 B per 220 ms ≈ 2.3 mb/s R_max > 2 mb/s capacity.
	tcfg.Session.FrameInterval = 220 * time.Millisecond
	tb, err := NewTestbed(tcfg)
	if err != nil {
		return Result{}, fmt.Errorf("experiments: figure 9: %w", err)
	}
	// The delay and γ series ride along in Obs, which fig9_obs.csv exports.
	tb.RecordTraces()
	if err := tb.Run(duration); err != nil {
		return Result{}, fmt.Errorf("experiments: figure 9: %w", err)
	}
	f1, f2 := tb.RateSeries[0], tb.RateSeries[1]
	peak := 0.0
	for it := f1.Iter(0, f1.Search(figure9JoinAt)); it.Next(); {
		peak = max(peak, it.Sample().Value)
	}
	convergedAt := fairnessTime(f1, f2, figure9JoinAt, 0.10)
	m := map[string]float64{
		"capacity_kbps":          tcfg.PELSCapacity().KbpsValue(),
		"fair_rate_kbps":         tcfg.Session.WithDefaults().MKC.StationaryRate(tcfg.PELSCapacity(), 2).KbpsValue(),
		"f1_peak_kbps":           peak,
		"f1_tail_kbps":           f1.MeanAfter(duration * 3 / 4),
		"f2_tail_kbps":           f2.MeanAfter(duration * 3 / 4),
		"converged_at_s":         convergedAt.Seconds(),
		"converged_after_join_s": (convergedAt - figure9JoinAt).Seconds(),
	}
	return Result{
		Output:    figure9Output(m),
		Events:    tb.Eng.Processed(),
		Obs:       tb.Obs,
		Artifacts: []Artifact{{Name: "fig9_rates.csv", Series: tb.RateSeries}},
		Metrics:   m,
	}, nil
}

// figure9Output prints the convergence run from its metrics.
func figure9Output(m map[string]float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "PELS capacity: %v, fair stationary rate (eq. 10): %v\n",
		units.BitRate(m["capacity_kbps"])*units.Kbps, units.BitRate(m["fair_rate_kbps"])*units.Kbps)
	fmt.Fprintf(&b, "F1 peak before join: %.0f kb/s (claims full capacity: %v)\n",
		m["f1_peak_kbps"], m["f1_peak_kbps"] >= 0.9*m["capacity_kbps"])
	fmt.Fprintf(&b, "tail rates: F1=%.0f kb/s F2=%.0f kb/s\n", m["f1_tail_kbps"], m["f2_tail_kbps"])
	if m["converged_at_s"] >= 0 {
		fmt.Fprintf(&b, "fair within 10%% from t=%.1fs (%.1fs after F2 joined at %.0fs)\n",
			m["converged_at_s"], m["converged_after_join_s"], figure9JoinAt.Seconds())
	} else {
		b.WriteString("flows did not reach sustained fairness\n")
	}
	return b.String()
}

// fairnessTime returns the first time ≥ from at which the two series stay
// within tol relative difference of each other for the rest of the run.
func fairnessTime(a, b *stats.TimeSeries, from time.Duration, tol float64) time.Duration {
	if b.Len() == 0 {
		return -1
	}
	// Walk a's samples and compare each with cur, the latest b sample at or
	// before it (b's first until a later one qualifies). While more is
	// true, bi stands on the b sample after cur.
	bi := b.Iter(0, b.Len())
	bi.Next()
	cur := bi.Sample()
	more := bi.Next()
	candidate := time.Duration(-1)
	for ai := a.Iter(a.Search(from), a.Len()); ai.Next(); {
		s := ai.Sample()
		for more && bi.Sample().At <= s.At {
			cur = bi.Sample()
			more = bi.Next()
		}
		bv := cur.Value
		if bv <= 0 {
			continue
		}
		diff := (s.Value - bv) / bv
		if diff < 0 {
			diff = -diff
		}
		if diff <= tol {
			if candidate < 0 {
				candidate = s.At
			}
		} else {
			candidate = -1
		}
	}
	return candidate
}
