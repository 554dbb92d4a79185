package experiments

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// quick are the entries cheap enough for -short mode: the closed forms,
// which run no simulation, and the 24-second chaos testbed and the
// 3.5-second live chaos drill, which CI's race-detector smoke job checks;
// the others are skipped.
var quick = map[string]bool{"table1": true, "fig2": true, "fig3": true, "fig5": true, "chaos-testbed": true, "chaos-wire": true}

// claimRun is one entry run at one geometry.
type claimRun struct {
	entry string
	geo   geometry
}

// claimRuns caches each (entry, geometry) run for the process, so every
// run happens once however many tests check rows against it.
var claimRuns = map[claimRun]Result{}

// runAt returns the entry's run at geo, from the cache when an earlier
// test made it.
func runAt(t *testing.T, entry string, geo geometry) Result {
	t.Helper()
	key := claimRun{entry, geo}
	res, ok := claimRuns[key]
	if !ok {
		e, found := Lookup(entry)
		if !found {
			t.Fatalf("no registry entry %q", entry)
		}
		var err error
		if res, err = e.at(geo); err != nil {
			t.Fatalf("%s: %v", entry, err)
		}
		claimRuns[key] = res
	}
	return res
}

// checkClaims checks every row of the given entries (all, if none are
// named) as a subtest named by its reference and metric.
func checkClaims(t *testing.T, entries ...string) {
	t.Helper()
	for _, c := range claims {
		if len(entries) > 0 && !slices.Contains(entries, c.entry) {
			continue
		}
		t.Run(c.ref+" "+c.metric, func(t *testing.T) {
			if testing.Short() && !quick[c.entry] {
				t.Skip("not in the -short set")
			}
			if err := c.check(runAt(t, c.entry, c.geo).Metrics); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestPaperClaims checks every row of the claims table.
func TestPaperClaims(t *testing.T) { checkClaims(t) }

// Each entry's rows also run under a test of its own, from the same
// cached runs, beside the structural checks some entries keep.
func TestTable1MatchesModel(t *testing.T) {
	checkClaims(t, "table1")
	if out := runAt(t, "table1", seed1(0)).Output; !strings.Contains(out, "model (2)") {
		t.Error("output missing model column")
	}
}

func TestFigure2Shapes(t *testing.T) {
	checkClaims(t, "fig2")
	m := runAt(t, "fig2", seed1(0)).Metrics
	var sizes []int
	for k := range m {
		if h, ok := strings.CutPrefix(k, "be_utility_H"); ok {
			n, err := strconv.Atoi(h)
			if err != nil {
				t.Fatalf("metric %q: %v", k, err)
			}
			sizes = append(sizes, n)
		}
	}
	slices.Sort(sizes)
	if len(sizes) < 2 {
		t.Fatalf("fig2 reports %d be_utility sizes", len(sizes))
	}
	for i := 1; i < len(sizes); i++ {
		if m[fmt.Sprintf("be_utility_H%d", sizes[i])] > m[fmt.Sprintf("be_utility_H%d", sizes[i-1])]+1e-12 {
			t.Errorf("BE utility not monotonically decreasing at H=%d", sizes[i])
		}
	}
}

func TestFigure3IdealDominatesRandom(t *testing.T) {
	checkClaims(t, "fig3")
	res := runAt(t, "fig3", geometry{seed: 7})
	m := res.Metrics
	if m["ideal_useful"] != 100-m["dropped"] {
		t.Errorf("ideal useful = %v, want %v", m["ideal_useful"], 100-m["dropped"])
	}
	_, random, ok := strings.Cut(res.Output, "random: ")
	if !ok || !strings.Contains(res.Output, "ideal:") {
		t.Fatalf("output missing patterns:\n%s", res.Output)
	}
	random, _, _ = strings.Cut(random, " ")
	if nd := strings.Count(random, "."); float64(nd) != m["dropped"] || len(random) != 100 {
		t.Errorf("random pattern %q: %d drops of %d packets, want %v of 100", random, nd, len(random), m["dropped"])
	}
}

func TestFigure5StableVsUnstable(t *testing.T)     { checkClaims(t, "fig5") }
func TestFigure7Reproduction(t *testing.T)         { checkClaims(t, "fig7") }
func TestFigure8DelayOrdering(t *testing.T)        { checkClaims(t, "fig8") }
func TestFigure9MKCConvergence(t *testing.T)       { checkClaims(t, "fig9") }
func TestFigure10PELSBeatsBestEffort(t *testing.T) { checkClaims(t, "fig10") }
func TestAblations(t *testing.T)                   { checkClaims(t, "ablations") }
func TestMultiBottleneckShift(t *testing.T)        { checkClaims(t, "multibottleneck") }
func TestUsefulUtilization(t *testing.T)           { checkClaims(t, "utilization") }
func TestWRRIsolation(t *testing.T)                { checkClaims(t, "isolation") }
func TestControllerIndependence(t *testing.T)      { checkClaims(t, "controllers") }
func TestRTTFairness(t *testing.T)                 { checkClaims(t, "rttfairness") }
func TestMixedPopulation(t *testing.T)             { checkClaims(t, "mixed") }
func TestRDScalingSmoothsQuality(t *testing.T)     { checkClaims(t, "rdscaling") }

// TestClaimTableWellFormed: every row names a registered entry, a paper
// reference and a metric, and a bound that is not vacuous: no NaN, at
// least one finite side, and a reference value wherever a limit scales
// one. That each metric is reported is checked by the row itself, which
// fails, never skips, when its entry does not report it.
func TestClaimTableWellFormed(t *testing.T) {
	if len(claims) == 0 {
		t.Fatal("empty claims table")
	}
	for _, c := range claims {
		if _, ok := Lookup(c.entry); !ok {
			t.Errorf("%s %s: no registry entry %q", c.ref, c.metric, c.entry)
		}
		if c.ref == "" || c.metric == "" {
			t.Errorf("row %+v has no reference or no metric", c)
		}
		b := c.bound
		for _, l := range []limit{b.lo, b.hi} {
			if math.IsNaN(l.k) || math.IsNaN(l.c) || math.IsInf(l.k, 0) {
				t.Errorf("%s %s: limit %+v is not a number", c.ref, c.metric, l)
			}
			if l.k != 0 && b.of == "" && c.oracle == nil {
				t.Errorf("%s %s: a limit scales a value, but the row names no metric and no oracle", c.ref, c.metric)
			}
		}
		if b.lo.k == 0 && math.IsInf(b.lo.c, 0) && b.hi.k == 0 && math.IsInf(b.hi.c, 0) {
			t.Errorf("%s %s: the bound excludes nothing", c.ref, c.metric)
		}
	}
}

// TestClaimCheckFailsOutsideBound: a row fails on a value its bound
// excludes, on a missing metric and on a missing reference metric, and
// holds on a value inside.
func TestClaimCheckFailsOutsideBound(t *testing.T) {
	oracle := func() float64 { return 100 }
	for _, tc := range []struct {
		bound   bound
		metrics map[string]float64
		holds   bool
	}{
		{atLeast(0.9), map[string]float64{"v": 0.9}, true},
		{atLeast(0.9), map[string]float64{"v": 0.89}, false},
		{atLeast(0.9), map[string]float64{"w": 1}, false},
		{near(0.1, 0), map[string]float64{"v": 110}, true},
		{near(0.1, 0), map[string]float64{"v": 111}, false},
		{times("x", 3, inf), map[string]float64{"v": 30, "x": 10}, true},
		{times("x", 3, inf), map[string]float64{"v": 29, "x": 10}, false},
		{times("x", 3, inf), map[string]float64{"v": 30}, false},
		{below("x"), map[string]float64{"v": 10, "x": 10}, false},
		{plus("x", -50, 50), map[string]float64{"v": 61, "x": 10}, false},
		{atMost(0.5), map[string]float64{"v": math.NaN()}, false},
	} {
		c := claim{ref: "test", entry: "test", metric: "v", oracle: oracle, bound: tc.bound}
		if err := c.check(tc.metrics); (err == nil) != tc.holds {
			t.Errorf("bound %+v on %v: error %v, want holds=%v", tc.bound, tc.metrics, err, tc.holds)
		}
	}
}
