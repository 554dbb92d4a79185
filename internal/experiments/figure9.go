package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/units"
)

// Figure9Result holds the MKC convergence experiment of paper Fig. 9
// (right): flow F1 starts alone, exponentially claims the whole PELS
// capacity, and after F2 joins at t=10 s both converge — without
// oscillation — to a fair share near the stationary rate of eq. (10).
// (Fig. 9 left, the red-delay staircase, shares the Figure8 driver.)
type Figure9Result struct {
	// Rates holds one rate time series (kb/s) per flow.
	Rates []*stats.TimeSeries
	// F1Peak is F1's maximum rate before F2 joins; Capacity the PELS
	// share it should approach.
	F1Peak   float64
	Capacity units.BitRate
	// FairRate is the closed-form stationary rate C/N + α/β for N=2;
	// F1Tail and F2Tail are the measured tail means.
	FairRate       units.BitRate
	F1Tail, F2Tail float64
	// ConvergedAt is the first time after F2's join at which both flows
	// stay within 10% of each other (Jain-fair), or -1 if never.
	ConvergedAt time.Duration
	JoinAt      time.Duration
	// Events is the number of simulator events the run processed.
	Events uint64
	// Obs is the run's testbed metric registry.
	Obs *obs.Registry
}

// Figure9Config parameterizes the convergence run.
type Figure9Config struct {
	JoinAt   time.Duration
	Duration time.Duration
	Seed     int64
}

// DefaultFigure9Config mirrors the paper (F2 joins at 10 s).
func DefaultFigure9Config() Figure9Config {
	return Figure9Config{
		JoinAt:   10 * time.Second,
		Duration: 40 * time.Second,
		Seed:     1,
	}
}

// Figure9 regenerates Fig. 9 (right). The frame interval is shortened so
// that R_max exceeds the PELS capacity and a single flow can claim the
// whole link, as in the paper.
func Figure9(cfg Figure9Config) (*Figure9Result, error) {
	tcfg := DefaultTestbedConfig()
	tcfg.Seed = cfg.Seed
	tcfg.NumPELS = 2
	tcfg.StartTimes = []time.Duration{0, cfg.JoinAt}
	// 126 packets × 500 B per 220 ms ≈ 2.3 mb/s R_max > 2 mb/s capacity.
	tcfg.Session.FrameInterval = 220 * time.Millisecond
	tb, err := NewTestbed(tcfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: figure 9: %w", err)
	}
	// The delay and γ series ride along in Obs, which fig9_obs.csv exports.
	tb.RecordTraces()
	if err := tb.Run(cfg.Duration); err != nil {
		return nil, fmt.Errorf("experiments: figure 9: %w", err)
	}
	scfg := tcfg.Session.WithDefaults()
	res := &Figure9Result{
		Obs:      tb.Obs,
		Rates:    tb.RateSeries,
		Capacity: tcfg.PELSCapacity(),
		FairRate: scfg.MKC.StationaryRate(tcfg.PELSCapacity(), 2),
		F1Tail:   tb.RateSeries[0].MeanAfter(cfg.Duration * 3 / 4),
		F2Tail:   tb.RateSeries[1].MeanAfter(cfg.Duration * 3 / 4),
		JoinAt:   cfg.JoinAt,
		Events:   tb.Eng.Processed(),
	}
	f1 := tb.RateSeries[0]
	for it := f1.Iter(0, f1.Search(cfg.JoinAt)); it.Next(); {
		if v := it.Sample().Value; v > res.F1Peak {
			res.F1Peak = v
		}
	}
	res.ConvergedAt = fairnessTime(tb.RateSeries[0], tb.RateSeries[1], cfg.JoinAt, 0.10)
	return res, nil
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

// FormatFigure9 summarizes the convergence run.
func FormatFigure9(r *Figure9Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "PELS capacity: %v, fair stationary rate (eq. 10): %v\n", r.Capacity, r.FairRate)
	fmt.Fprintf(&b, "F1 peak before join: %.0f kb/s (claims full capacity: %v)\n",
		r.F1Peak, r.F1Peak >= 0.9*r.Capacity.KbpsValue())
	fmt.Fprintf(&b, "tail rates: F1=%.0f kb/s F2=%.0f kb/s\n", r.F1Tail, r.F2Tail)
	if r.ConvergedAt >= 0 {
		fmt.Fprintf(&b, "fair within 10%% from t=%.1fs (%.1fs after F2 joined at %.0fs)\n",
			r.ConvergedAt.Seconds(), (r.ConvergedAt - r.JoinAt).Seconds(), r.JoinAt.Seconds())
	} else {
		b.WriteString("flows did not reach sustained fairness\n")
	}
	return b.String()
}
