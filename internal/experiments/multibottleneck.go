package experiments

import (
	"fmt"
	"time"

	"repro/internal/aqm"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/pels"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/units"
)

// multiBottleneckAt exercises the multi-router machinery of paper §5.2:
// when several PELS routers sit on the path, each overrides the feedback
// label only if its loss is larger, so sources always react to the most
// congested resource (max-min); the router ID field lets them follow
// bottleneck shifts.
//
// Topology: src — R1 —(C1)— R2 —(C2)— R3 — dst, both middle links running
// PELS AQM. R2 (C2 = 600 kb/s) starts as the bottleneck; at 40 s R1's
// advertised capacity drops from C1 = 900 kb/s to 300 kb/s, shifting the
// bottleneck upstream. The run lasts 80 s unless the geometry says
// otherwise. Each phase's rate is its last quarter's mean, against the
// eq. (10) rate of its bottleneck, and its router the one most of the
// second half's feedback came from.
func multiBottleneckAt(g geometry) (Result, error) {
	const c1, c2, c1Shift, shiftAt = 900 * units.Kbps, 600 * units.Kbps, 300 * units.Kbps, 40 * time.Second
	duration := g.or(80 * time.Second)
	eng := sim.NewEngine(g.seed)
	nw := netsim.NewNetwork(eng)

	src := nw.NewHost("src")
	dst := nw.NewHost("dst")
	r1 := nw.NewRouter("r1")
	r2 := nw.NewRouter("r2")
	r3 := nw.NewRouter("r3")

	// The registry holds the rate and bottleneck series plus both
	// routers' feedback series under the r1./r2. prefixes.
	reg := obs.NewRegistry()
	fb1 := aqm.NewFeedback(eng, aqm.FeedbackConfig{
		RouterID: r1.ID(), Interval: 30 * time.Millisecond, Capacity: c1,
		Obs: reg, Prefix: "r1.",
	})
	fb2 := aqm.NewFeedback(eng, aqm.FeedbackConfig{
		RouterID: r2.ID(), Interval: 30 * time.Millisecond, Capacity: c2,
		Obs: reg, Prefix: "r2.",
	})

	b1 := aqm.NewBottleneck(aqm.DefaultBottleneckConfig())
	b2 := aqm.NewBottleneck(aqm.DefaultBottleneckConfig())

	access := netsim.LinkConfig{Rate: 10 * units.Mbps, Delay: 2 * time.Millisecond}
	nw.Connect(src, r1, access, access)
	// Physical link rates match the advertised capacities so drops are
	// physical too (no cross traffic in this focused experiment).
	l1, _ := nw.Connect(r1, r2,
		netsim.LinkConfig{Rate: c1, Delay: 5 * time.Millisecond, Disc: b1.Disc},
		netsim.LinkConfig{Rate: c1, Delay: 5 * time.Millisecond})
	l2, _ := nw.Connect(r2, r3,
		netsim.LinkConfig{Rate: c2, Delay: 5 * time.Millisecond, Disc: b2.Disc},
		netsim.LinkConfig{Rate: c2, Delay: 5 * time.Millisecond})
	l1.Proc = fb1
	l2.Proc = fb2
	nw.Connect(r3, dst, access, access)
	if err := nw.ComputeRoutes(); err != nil {
		return Result{}, fmt.Errorf("experiments: multibottleneck: %w", err)
	}

	source, sink, err := pels.Session(nw, src, dst, pels.Config{
		Flow:       1,
		RateSeries: reg.Series("rate_kbps"),
	})
	if err != nil {
		return Result{}, fmt.Errorf("experiments: multibottleneck: %w", err)
	}

	rate := reg.Series("rate_kbps").TimeSeries()
	router := reg.Series("bottleneck_router").TimeSeries()
	probe := sim.NewTicker(eng, 100*time.Millisecond, func() {
		fb := sink.Received().LastFeedback
		if fb.Valid {
			router.Add(eng.Now(), float64(fb.RouterID))
		}
	})
	probe.Start()

	// The shift: R1's advertised PELS capacity drops (e.g. an operator
	// reconfigures the WRR share, or priority cross traffic claims it).
	eng.At(shiftAt, func() { fb1.SetCapacity(c1Shift) })

	source.Start(0)
	if err := eng.RunUntil(duration); err != nil {
		return Result{}, fmt.Errorf("experiments: multibottleneck: %w", err)
	}

	mkc := pels.Config{}.WithDefaults().MKC
	m := map[string]float64{
		"rate_before_kbps": rate.MeanBetween(shiftAt*3/4, shiftAt),
		"want_before_kbps": mkc.StationaryRate(c2, 1).KbpsValue(),
		"router_before":    float64(dominantID(router, shiftAt/2, shiftAt)),
		"rate_after_kbps":  rate.MeanBetween(shiftAt+(duration-shiftAt)*3/4, duration),
		"want_after_kbps":  mkc.StationaryRate(c1Shift, 1).KbpsValue(),
		"router_after":     float64(dominantID(router, shiftAt+(duration-shiftAt)/2, duration)),
		"r1_id":            float64(r1.ID()),
		"r2_id":            float64(r2.ID()),
	}
	out := fmt.Sprintf("before shift: rate %.0f kb/s (want ~%.0f), feedback from router %.0f (R2=%.0f)\n"+
		"after shift:  rate %.0f kb/s (want ~%.0f), feedback from router %.0f (R1=%.0f)\n",
		m["rate_before_kbps"], m["want_before_kbps"], m["router_before"], m["r2_id"],
		m["rate_after_kbps"], m["want_after_kbps"], m["router_after"], m["r1_id"])
	return Result{
		Output:    out,
		Events:    eng.Processed(),
		Obs:       reg,
		Artifacts: []Artifact{{Name: "multibottleneck.csv", Series: []*stats.TimeSeries{rate, router}}},
		Metrics:   m,
	}, nil
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
