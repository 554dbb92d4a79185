package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/aqm"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/pels"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/units"
)

// MultiBottleneckResult exercises the multi-router machinery of paper §5.2:
// when several PELS routers sit on the path, each overrides the feedback
// label only if its loss is larger, so sources always react to the most
// congested resource (max-min); the router ID field lets them follow
// bottleneck shifts.
//
// Topology: src — R1 —(C1)— R2 —(C2)— R3 — dst, both middle links running
// PELS AQM. C2 starts as the bottleneck; at ShiftAt, cross traffic through
// R1 shrinks the capacity advertised by R1 below C2, shifting the
// bottleneck upstream.
type MultiBottleneckResult struct {
	// Rate is the flow's rate series (kb/s); BottleneckID the router ID
	// in the feedback the source reacted to, sampled per rate update.
	Rate         *stats.TimeSeries
	BottleneckID *stats.TimeSeries
	// Phase tails: mean rate over the last quarter of each phase, and the
	// closed-form stationary rates for the two bottlenecks.
	RateBefore, RateAfter float64
	WantBefore, WantAfter float64
	// IDBefore/IDAfter are the dominant feedback router IDs per phase.
	IDBefore, IDAfter int
	R1ID, R2ID        int
	ShiftAt           time.Duration
	// Events is the number of simulator events the run processed.
	Events uint64
	// Obs is the run's metric registry (rate/bottleneck series plus both
	// routers' feedback series under the r1./r2. prefixes).
	Obs *obs.Registry
}

// MultiBottleneckConfig parameterizes the experiment.
type MultiBottleneckConfig struct {
	// C1 and C2 are the PELS capacities advertised by the two routers
	// before the shift; C1Shift is R1's capacity after the shift.
	C1, C2, C1Shift units.BitRate
	ShiftAt         time.Duration
	Duration        time.Duration
	Seed            int64
}

// DefaultMultiBottleneckConfig: R2 (600 kb/s) is the initial bottleneck;
// at t=40 s R1's share collapses to 300 kb/s and becomes the bottleneck.
func DefaultMultiBottleneckConfig() MultiBottleneckConfig {
	return MultiBottleneckConfig{
		C1:       900 * units.Kbps,
		C2:       600 * units.Kbps,
		C1Shift:  300 * units.Kbps,
		ShiftAt:  40 * time.Second,
		Duration: 80 * time.Second,
		Seed:     1,
	}
}

// MultiBottleneck runs the bottleneck-shift experiment.
func MultiBottleneck(cfg MultiBottleneckConfig) (*MultiBottleneckResult, error) {
	eng := sim.NewEngine(cfg.Seed)
	nw := netsim.NewNetwork(eng)

	src := nw.NewHost("src")
	dst := nw.NewHost("dst")
	r1 := nw.NewRouter("r1")
	r2 := nw.NewRouter("r2")
	r3 := nw.NewRouter("r3")

	reg := obs.NewRegistry()
	fb1 := aqm.NewFeedback(eng, aqm.FeedbackConfig{
		RouterID: r1.ID(), Interval: 30 * time.Millisecond, Capacity: cfg.C1,
		Obs: reg, Prefix: "r1.",
	})
	fb2 := aqm.NewFeedback(eng, aqm.FeedbackConfig{
		RouterID: r2.ID(), Interval: 30 * time.Millisecond, Capacity: cfg.C2,
		Obs: reg, Prefix: "r2.",
	})

	b1 := aqm.NewBottleneck(aqm.DefaultBottleneckConfig())
	b2 := aqm.NewBottleneck(aqm.DefaultBottleneckConfig())

	access := netsim.LinkConfig{Rate: 10 * units.Mbps, Delay: 2 * time.Millisecond}
	nw.Connect(src, r1, access, access)
	// Physical link rates match the advertised capacities so drops are
	// physical too (no cross traffic in this focused experiment).
	l1, _ := nw.Connect(r1, r2,
		netsim.LinkConfig{Rate: cfg.C1, Delay: 5 * time.Millisecond, Disc: b1.Disc},
		netsim.LinkConfig{Rate: cfg.C1, Delay: 5 * time.Millisecond})
	l2, _ := nw.Connect(r2, r3,
		netsim.LinkConfig{Rate: cfg.C2, Delay: 5 * time.Millisecond, Disc: b2.Disc},
		netsim.LinkConfig{Rate: cfg.C2, Delay: 5 * time.Millisecond})
	l1.Proc = fb1
	l2.Proc = fb2
	nw.Connect(r3, dst, access, access)
	if err := nw.ComputeRoutes(); err != nil {
		return nil, fmt.Errorf("experiments: multibottleneck: %w", err)
	}

	source, sink, err := pels.Session(nw, src, dst, pels.Config{
		Flow:       1,
		RateSeries: reg.Series("rate_kbps"),
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: multibottleneck: %w", err)
	}

	res := &MultiBottleneckResult{
		Rate:         reg.Series("rate_kbps").TimeSeries(),
		BottleneckID: reg.Series("bottleneck_router").TimeSeries(),
		R1ID:         r1.ID(),
		R2ID:         r2.ID(),
		ShiftAt:      cfg.ShiftAt,
		Obs:          reg,
	}
	probe := sim.NewTicker(eng, 100*time.Millisecond, func() {
		fb := sink.LatestFeedback()
		if fb.Valid {
			res.BottleneckID.Add(eng.Now(), float64(fb.RouterID))
		}
	})
	probe.Start()

	// The shift: R1's advertised PELS capacity drops (e.g. an operator
	// reconfigures the WRR share, or priority cross traffic claims it).
	eng.At(cfg.ShiftAt, func() { fb1.SetCapacity(cfg.C1Shift) })

	source.Start(0)
	if err := eng.RunUntil(cfg.Duration); err != nil {
		return nil, fmt.Errorf("experiments: multibottleneck: %w", err)
	}

	scfg := pels.Config{}.WithDefaults()
	res.WantBefore = scfg.MKC.StationaryRate(cfg.C2, 1).KbpsValue()
	res.WantAfter = scfg.MKC.StationaryRate(cfg.C1Shift, 1).KbpsValue()
	res.RateBefore = res.Rate.MeanBetween(cfg.ShiftAt*3/4, cfg.ShiftAt)
	res.RateAfter = res.Rate.MeanBetween(cfg.ShiftAt+(cfg.Duration-cfg.ShiftAt)*3/4, cfg.Duration)
	res.IDBefore = dominantID(res.BottleneckID, cfg.ShiftAt/2, cfg.ShiftAt)
	res.IDAfter = dominantID(res.BottleneckID, cfg.ShiftAt+(cfg.Duration-cfg.ShiftAt)/2, cfg.Duration)
	res.Events = eng.Processed()
	return res, nil
}

func dominantID(ts *stats.TimeSeries, lo, hi time.Duration) int {
	counts := map[int]int{}
	for it := ts.Iter(ts.Search(lo), ts.Search(hi)); it.Next(); {
		counts[int(it.Sample().Value)]++
	}
	best, bestN := 0, -1
	for id, n := range counts {
		if n > bestN {
			best, bestN = id, n
		}
	}
	return best
}

// FormatMultiBottleneck summarizes the shift experiment.
func FormatMultiBottleneck(r *MultiBottleneckResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "before shift: rate %.0f kb/s (want ~%.0f), feedback from router %d (R2=%d)\n",
		r.RateBefore, r.WantBefore, r.IDBefore, r.R2ID)
	fmt.Fprintf(&b, "after shift:  rate %.0f kb/s (want ~%.0f), feedback from router %d (R1=%d)\n",
		r.RateAfter, r.WantAfter, r.IDAfter, r.R1ID)
	return b.String()
}
