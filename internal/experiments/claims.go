package experiments

import (
	"fmt"
	"math"
	"time"

	"repro/internal/analysis"
	"repro/internal/cc"
	"repro/internal/units"
)

// claim is one checkable statement of the paper (or, for the ablations, of
// DESIGN.md §6): the value an entry reports under metric, run at geo, lies
// within bound. The claims table is the one list of them; the tests check
// every row, and EXPERIMENTS.md names rows rather than restating them.
type claim struct {
	// ref is where the claim is made: a figure, table, lemma or section.
	ref   string
	entry string
	// geo is the seed and duration the row is checked at; a zero duration
	// is the entry's own.
	geo    geometry
	metric string
	// paper is the value as the paper states it; "" where it gives none.
	paper string
	// oracle is the closed form from internal/analysis, where one exists.
	oracle func() float64
	bound  bound
}

// bound is lo ≤ v ≤ hi, or lo < v < hi when open. A limit is k·x + c,
// where x is the metric of the same run named by of, else the row's
// oracle; a limit with k = 0 is the constant c.
type bound struct {
	of     string
	lo, hi limit
	open   bool
}

type limit struct{ k, c float64 }

func (l limit) at(x float64) float64 {
	if l.k == 0 {
		return l.c
	}
	return l.k*x + l.c
}

var inf = math.Inf(1)

// between is an absolute interval; atLeast and atMost leave one side open.
func between(lo, hi float64) bound { return bound{lo: limit{0, lo}, hi: limit{0, hi}} }
func atLeast(v float64) bound      { return between(v, inf) }
func atMost(v float64) bound       { return between(-inf, v) }

// near is |v − x| ≤ tol·x + abs, with x the oracle.
func near(tol, abs float64) bound { return bound{lo: limit{1 - tol, -abs}, hi: limit{1 + tol, abs}} }

// times is lo·x ≤ v ≤ hi·x, with x the metric of ("" for the oracle); an
// infinite factor leaves its side open.
func times(of string, lo, hi float64) bound {
	b := bound{of: of, lo: limit{lo, 0}, hi: limit{hi, 0}}
	if math.IsInf(lo, 0) {
		b.lo = limit{0, lo}
	}
	if math.IsInf(hi, 0) {
		b.hi = limit{0, hi}
	}
	return b
}

// plus is x + lo ≤ v ≤ x + hi, with x the metric of.
func plus(of string, lo, hi float64) bound { return bound{of: of, lo: limit{1, lo}, hi: limit{1, hi}} }

// over is v > c, for a constant c.
func over(c float64) bound { return bound{lo: limit{0, c}, hi: limit{0, inf}, open: true} }

// below and above are v < x and v > x, with x the metric of.
func below(of string) bound { return bound{of: of, lo: limit{0, -inf}, hi: limit{1, 0}, open: true} }
func above(of string) bound { return bound{of: of, lo: limit{1, 0}, hi: limit{0, inf}, open: true} }

// check reports whether the row holds in one run's metrics; a metric the
// run does not report fails it.
func (c claim) check(m map[string]float64) error {
	v, ok := m[c.metric]
	if !ok {
		return fmt.Errorf("%s reports no metric %q", c.entry, c.metric)
	}
	var x float64
	switch {
	case c.bound.of != "":
		if x, ok = m[c.bound.of]; !ok {
			return fmt.Errorf("%s reports no metric %q", c.entry, c.bound.of)
		}
	case c.oracle != nil:
		x = c.oracle()
	}
	lo, hi := c.bound.lo.at(x), c.bound.hi.at(x)
	if c.bound.open && lo < v && v < hi || !c.bound.open && lo <= v && v <= hi {
		return nil
	}
	return fmt.Errorf("%s %s = %.6g, want between %.6g and %.6g (exclusive: %v; paper: %q)",
		c.entry, c.metric, v, lo, hi, c.bound.open, c.paper)
}

// The oracles of eq. (10) for n flows of the default MKC on capacity c:
// r* in kb/s, and p* for an additive term alpha.
func eq10Rate(c units.BitRate, n int) func() float64 {
	m := cc.DefaultMKCConfig()
	return func() float64 { return analysis.MKCStationaryRate(float64(c), float64(m.Alpha), m.Beta, n) / 1000 }
}

func eq10Loss(c, alpha units.BitRate, n int) func() float64 {
	return func() float64 {
		return analysis.MKCStationaryLoss(float64(c), float64(alpha), cc.DefaultMKCConfig().Beta, n)
	}
}

// seed1 is the geometry of a row checked at seed 1 for d (0: the entry's
// own duration).
func seed1(d time.Duration) geometry { return geometry{seed: 1, dur: d} }

// claims is the claims table, in registry order.
var claims = func() []claim {
	capacity, alpha := DefaultTestbedConfig().PELSCapacity(), cc.DefaultMKCConfig().Alpha
	s := time.Second
	var t []claim
	for _, r := range []struct {
		p     float64
		paper string
		want  float64
	}{{0.0001, "99.49", 99.49}, {0.01, "62.76", 62.76}, {0.1, "8.99", 8.99}} {
		p := r.p
		t = append(t,
			claim{"Table 1", "table1", seed1(0), fmt.Sprintf("useful_model_p%g", p), r.paper, nil, between(r.want-0.011, r.want+0.011)},
			claim{"Table 1", "table1", seed1(0), fmt.Sprintf("useful_sim_p%g", p), r.paper,
				func() float64 { return analysis.ExpectedUsefulFixedH(p, 100) }, near(0.02, 0.05)})
	}
	t = append(t,
		claim{"Fig. 2", "fig2", seed1(0), "be_useful_H1000", "(1−p)/p = 9", nil, between(9-0.01, 9+0.01)},
		claim{"Fig. 2", "fig2", seed1(0), "opt_useful_H1000", "H(1−p) = 900", nil, between(900, 900)},
		claim{"Fig. 2", "fig2", seed1(0), "be_utility_H1000", "≈ 1/(Hp)", nil, atMost(0.011)},
		claim{"Fig. 2", "fig2", seed1(0), "opt_utility_H1000", "1", nil, between(1, 1)},
		claim{"Fig. 3", "fig3", geometry{seed: 7}, "ideal_useful", "", nil, times("random_useful", 1, inf)},
		claim{"Fig. 5", "fig5", seed1(0), "stable_final", "γ* = p/p_thr",
			func() float64 { return analysis.GammaFixedPoint(0.5, 0.75) }, near(0, 1e-3)},
		claim{"Fig. 5", "fig5", seed1(0), "unstable_final_abs", "diverges", nil, atLeast(1000)},
	)
	for _, r := range []struct {
		n     int
		paper string
	}{{4, "≈ 7 %"}, {8, "≈ 14 %"}} {
		k, loss := fmt.Sprintf("n%d.", r.n), eq10Loss(capacity, alpha, r.n)
		t = append(t,
			claim{"Fig. 7", "fig7", seed1(90 * s), k + "loss(sim)", r.paper, loss, near(0.15, 0)},
			claim{"Fig. 7", "fig7", seed1(90 * s), k + "gamma(sim)", "γ* = p*/p_thr",
				func() float64 { return analysis.GammaFixedPoint(loss(), 0.75) }, near(0.25, 0)},
			claim{"Fig. 7", "fig7", seed1(90 * s), k + "redloss", "p_thr = 0.75", nil, between(0.55, 0.95)},
			claim{"Fig. 7", "fig7", seed1(90 * s), k + "gamma_min", "dips to γ_low", nil, atMost(0.06)})
	}
	t = append(t,
		claim{"Fig. 7", "fig7", seed1(90 * s), "n8.loss(sim)", "", nil, above("n4.loss(sim)")},
		claim{"Fig. 7", "fig7", seed1(90 * s), "n8.gamma(sim)", "", nil, above("n4.gamma(sim)")},
		claim{"§4.2", "fig7", seed1(90 * s), "n4.green_lost", "the base layer is never dropped", nil, between(0, 0)},
		claim{"Fig. 8", "fig8", seed1(150 * s), "green_mean_ms", "≈ 16 ms", nil, below("yellow_mean_ms")},
		claim{"Fig. 8", "fig8", seed1(150 * s), "yellow_mean_ms", "≈ 25 ms", nil, bound{of: "red_mean_ms", lo: limit{0, -inf}, hi: limit{1.0 / 3, 0}, open: true}},
		claim{"Fig. 8", "fig8", seed1(150 * s), "green_mean_ms", "≈ 16 ms", nil, atMost(30)},
		claim{"Fig. 8", "fig8", seed1(150 * s), "red_mean_ms", "up to ≈ 400 ms", nil, between(50, 2000)},
		claim{"§4.2", "fig8", seed1(150 * s), "green_lost", "the base layer is never dropped", nil, between(0, 0)},
		claim{"Fig. 9", "fig9", seed1(0), "f1_peak_kbps", "the whole PELS capacity", nil, times("capacity_kbps", 0.85, inf)},
		claim{"Fig. 9", "fig9", seed1(0), "f1_tail_kbps", "r* = C/N + α/β", eq10Rate(capacity, 2), near(0.12, 0)},
		claim{"Fig. 9", "fig9", seed1(0), "f2_tail_kbps", "r* = C/N + α/β", eq10Rate(capacity, 2), near(0.12, 0)},
		claim{"Fig. 9", "fig9", seed1(0), "converged_at_s", "", nil, atLeast(0)},
		claim{"Fig. 9", "fig9", seed1(0), "converged_after_join_s", "≈ 13 s", nil, atMost(25)},
	)
	for i, level := range figure10Levels {
		k, g := fmt.Sprintf("level%d.", i), seed1(120*s)
		paper := [][3]string{{"≈ 10 %", "60 %", "24 %"}, {"≈ 19 %", "55 %", "16 %"}}[i]
		t = append(t,
			claim{"Fig. 10", "fig10", g, k + "pels_loss", paper[0], eq10Loss(capacity, level.alpha, level.flows), near(0.2, 0)},
			claim{"Fig. 10", "fig10", g, k + "pels_gain_pct", paper[1], nil, times(k+"be_gain_pct", 2, inf)},
			claim{"Fig. 10", "fig10", g, k + "pels_gain_pct", paper[1], nil, atLeast(40)},
			claim{"Fig. 10", "fig10", g, k + "be_gain_pct", paper[2], nil, atLeast(5)},
			claim{"Fig. 10", "fig10", g, k + "pels_utility", "", nil, atLeast(0.85)},
			claim{"Fig. 10", "fig10", g, k + "be_utility", "", nil, atMost(0.4)},
			claim{"Fig. 10", "fig10", g, k + "be_swing_db", "up to 15 dB", nil, times(k+"pels_swing_db", 1.5, inf)},
			claim{"Fig. 10", "fig10", g, k + "pels_complete", "", nil, times(k+"frames", 1, 1)},
			claim{"Fig. 10", "fig10", g, k + "be_complete", "", nil, times(k+"frames", 1, 1)})
	}
	t = append(t, claim{"Fig. 10", "fig10", seed1(120 * s), "level1.be_useful", "", nil, times("level0.be_useful", -inf, 1)})

	ab := func(metric string, b bound) claim {
		return claim{"DESIGN §6", "ablations", seed1(60 * s), metric, "", nil, b}
	}
	t = append(t,
		ab("baseline.utility", atLeast(0.9)),
		ab("baseline.yellowloss", atMost(0.01)),
		claim{"DESIGN §6", "ablations", seed1(60 * s), "baseline.redloss", "p_thr = 0.75", nil, between(0.5, 0.9)},
		ab("fifo.utility", times("baseline.utility", -inf, 0.5)),
		ab("no-dedup.rate-stddev", times("baseline.rate-stddev", 3, inf)),
		ab("fixed-gamma-low.yellowloss", times("baseline.yellowloss", 10, inf)),
		ab("fixed-gamma-high.utility", plus("baseline.utility", -inf, -0.2)),
		ab("gamma-enh-share.redloss", plus("baseline.redloss", 0.1, inf)),
		ab("green-only-feedback.utility", plus("baseline.utility", -inf, 0.02)),
		ab("two-priority.utility", times("baseline.utility", -inf, 0.5)),
		ab("aimd-controller.utility", atLeast(0.9)),
		ab("aimd-controller.rate(kb/s)", below("baseline.rate(kb/s)")),
		ab("aimd-controller.rate-stddev", times("baseline.rate-stddev", 3, inf)),
		claim{"§5.2", "multibottleneck", seed1(0), "rate_before_kbps", "r* of R2", eq10Rate(600*units.Kbps, 1), near(0.1, 0)},
		claim{"§5.2", "multibottleneck", seed1(0), "rate_after_kbps", "r* of R1", eq10Rate(300*units.Kbps, 1), near(0.1, 0)},
		claim{"§5.2", "multibottleneck", seed1(0), "router_before", "R2", nil, times("r2_id", 1, 1)},
		claim{"§5.2", "multibottleneck", seed1(0), "router_after", "R1", nil, times("r1_id", 1, 1)},
		claim{"§1", "utilization", seed1(60 * s), "pels.useful/tx", "", nil, atLeast(0.9)},
		claim{"§1", "utilization", seed1(60 * s), "best-effort.useful/tx", "", nil, atMost(0.65)},
		claim{"§1", "utilization", seed1(60 * s), "pels.useful/tx", "", nil, times("best-effort.useful/tx", 1.5, inf)},
		claim{"§1", "utilization", seed1(60 * s), "pels.deliv/tx", "", nil, atLeast(0.99)},
		claim{"§1", "utilization", seed1(60 * s), "best-effort.deliv/tx", "", nil, atLeast(0.99)},
		claim{"§6.1", "isolation", seed1(45 * s), "pels1.tcp_kbps", "", nil, times("internet_share_kbps", 0.85, inf)},
	)
	for _, n := range []int{2, 4, 8} {
		t = append(t, claim{"§6.1", "isolation", seed1(45 * s), fmt.Sprintf("pels%d.tcp_kbps", n), "", nil, times("internet_share_kbps", 0.75, 1.1)})
	}
	for _, n := range []int{1, 2, 4, 8} {
		t = append(t, claim{"§6.1", "isolation", seed1(45 * s), fmt.Sprintf("tcp%d.pels_kbps", n), "", nil, times("pels_share_kbps", 0.95, 1.1)})
	}
	for _, c := range ccTable {
		t = append(t,
			claim{"§5", "controllers", seed1(60 * s), c.name + ".utility", "", nil, atLeast(0.9)},
			claim{"§5", "controllers", seed1(60 * s), c.name + ".yellowloss", "", nil, atMost(0.2)})
	}
	t = append(t,
		claim{"§5", "controllers", seed1(60 * s), "mkc.rate(kb/s)", "r* = C/N + α/β", nil, plus("kelly.rate(kb/s)", -50, 50)},
		claim{"§5", "controllers", seed1(60 * s), "mkc.rate-stddev", "", nil, atMost(40)},
		claim{"§5", "controllers", seed1(60 * s), "kelly.rate-stddev", "", nil, atMost(40)},
		claim{"§5", "controllers", seed1(60 * s), "aimd.rate-stddev", "", nil, times("mkc.rate-stddev", 3, inf)},
		claim{"§5", "controllers", seed1(60 * s), "iiad.rate-stddev", "", nil, below("aimd.rate-stddev")},
		claim{"§5", "controllers", seed1(60 * s), "sqrt.rate-stddev", "", nil, below("aimd.rate-stddev")},
		claim{"Lemma 6", "rttfairness", seed1(60 * s), "jain", "1", nil, atLeast(0.999)},
	)
	for i := 0; i < 3; i++ {
		t = append(t, claim{"Lemma 6", "rttfairness", seed1(60 * s), fmt.Sprintf("f%d.rate_kbps", i), "r* = C/N + α/β", eq10Rate(capacity, 3), near(0.05, 0)})
	}
	for i := 0; i < 4; i++ {
		rate := times("", 1, inf) // MKC flows gain from AIMD's back-offs
		if i >= 2 {
			rate = times("", -inf, 0.5) // AIMD collapses under persistent loss
		}
		t = append(t,
			claim{"§5", "mixed", seed1(60 * s), fmt.Sprintf("f%d.utility", i), "", nil, atLeast(0.9)},
			claim{"§5", "mixed", seed1(60 * s), fmt.Sprintf("f%d.rate(kb/s)", i), "", eq10Rate(capacity, 4), rate})
	}
	// The live entries run on the wall clock at their own run, seed 1.
	live := func(ref, entry, metric string, b bound) claim {
		return claim{ref, entry, seed1(0), metric, "", nil, b}
	}
	t = append(t,
		claim{"§4.2", "wire-loopback", seed1(0), "green_lost", "the base layer is never dropped", nil, between(0, 0)},
		live("DESIGN §8", "wire-loopback", "green_rcvd", over(0)),
		live("DESIGN §8", "wire-loopback", "red_lost", over(0)),
		live("DESIGN §8", "wire-loopback", "goodput_bps", times("capacity_bps", 0.5, 1.1)),
	)
	chaos := func(metric string, b bound) claim {
		return claim{"DESIGN §11", "chaos-testbed", seed1(0), metric, "", nil, b}
	}
	ladder := func(metric string, b bound) claim {
		return claim{"DESIGN §15", "nlayer-testbed", seed1(0), metric, "", nil, b}
	}
	t = append(t,
		chaos("reconverge_ratio", between(0.9, 1.1)),
		chaos("green_drops_after", between(0, 0)),
		chaos("pre_rate_kbps", over(0)),
		chaos("fwd_fault_drops", atLeast(1)),
		chaos("fwd_starved", atLeast(1)),
		chaos("rev_duplicated", atLeast(1)),
		chaos("rev_reordered", atLeast(1)),
		live("DESIGN §11", "chaos-wire", "datagrams_rcvd", over(0)),
		live("DESIGN §11", "chaos-wire", "router_changes", atLeast(1)),
		live("DESIGN §11", "chaos-wire", "fwd_offered", over(0)),
		live("DESIGN §16", "overload-wire", "completed", times("receivers", 1, 1)),
		live("DESIGN §16", "overload-wire", "rejected_full", over(0)),
		live("DESIGN §16", "overload-wire", "swarm_rejects", over(0)),
		live("DESIGN §16", "overload-wire", "sheds", over(0)),
		live("DESIGN §16", "overload-wire", "restores", over(0)),
		live("DESIGN §16", "overload-wire", "shed_level_end", between(0, 0)),
		claim{"§4.2", "overload-wire", seed1(0), "green_lost", "the base layer is never dropped", nil, between(0, 0)},
		live("DESIGN §16", "overload-wire", "green_rcvd", over(0)),
		live("DESIGN §16", "overload-wire", "fault_dup", over(0)),
		ladder("green_loss", between(0, 0)),
		ladder("layer7_loss", above("total_loss")),
		ladder("total_loss", over(0)),
	)
	return append(t,
		claim{"§6.5", "rdscaling", seed1(120 * s), "rd-aware.stddev", "", nil, below("constant.stddev")},
		claim{"§6.5", "rdscaling", seed1(120 * s), "rd-aware.swing", "", nil, times("constant.swing", -inf, 1)},
		claim{"§6.5", "rdscaling", seed1(120 * s), "rd-aware.rate(kb/s)", "", nil, times("constant.rate(kb/s)", 0.98, 1.02)},
		claim{"§6.5", "rdscaling", seed1(120 * s), "rd-aware.mean PSNR", "", nil, plus("constant.mean PSNR", -0.5, inf)},
		claim{"§6.5", "rdscaling", seed1(120 * s), "rd-aware.frames", "", nil, times("constant.frames", 1, 1)},
	)
}()
