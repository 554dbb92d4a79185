package experiments

import "testing"

// Pinned 3-layer outputs, first captured on the commit immediately before
// the N-layer generalization and re-captured when pels.Source became the
// simulator's driver of session.Session, and (the chaos fingerprint only)
// when pels.Sink became the driver of the live receiver core, whose label
// rule follows a gateway swap at once (EXPERIMENTS.md gives each). The
// contract is that the classic green/yellow/red configuration stays
// bit-exact: same event counts, same SHA-256 over the full observability
// CSV, same figure-7 metrics.
const (
	pinnedChaosFingerprint = "dd58e19ef54afa246ae0b64f333d56fab821f1fb15681420f66a53733c0f2fcc"
	pinnedChaosEvents      = 206621
)

// TestChaosFingerprintPinnedAcrossLayerRefactor runs the full chaos
// testbed (fault plans, gateway swap, every control loop live) and
// compares the observability CSV hash against the pre-refactor pin.
func TestChaosFingerprintPinnedAcrossLayerRefactor(t *testing.T) {
	if testing.Short() {
		t.Skip("full chaos run in -short mode")
	}
	e, _ := Lookup("chaos-testbed")
	res, err := e.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Events != pinnedChaosEvents {
		t.Errorf("chaos event count = %d, want pinned %d", res.Events, pinnedChaosEvents)
	}
	if got := obsFingerprint(t, res); got != pinnedChaosFingerprint {
		t.Errorf("chaos fingerprint diverged from pre-refactor pin:\ngot  %s\nwant %s",
			got, pinnedChaosFingerprint)
	}
}

// TestFigure7MetricsPinnedAcrossLayerRefactor pins the figure-7 scaling
// runs (4 and 8 flows, 120 s) to their pinned values. Floats are
// compared exactly: the 3-layer code path must execute the identical
// sequence of operations.
func TestFigure7MetricsPinnedAcrossLayerRefactor(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure-7 runs in -short mode")
	}
	pinned := map[string]struct {
		measured, gammaTail, redLossTail float64
		events                           uint64
	}{
		"n4": {0.07486933133020765, 0.10125854957975215, 0.7834088850171943, 1151290},
		"n8": {0.13702943068291495, 0.1836864617754172, 0.7866786072898807, 1170476},
	}
	e, _ := Lookup("fig7")
	res, err := e.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	for n, want := range pinned {
		m := func(k string) float64 {
			v, ok := res.Metrics[n+"."+k]
			if !ok {
				t.Fatalf("fig7 reports no metric %s.%s", n, k)
			}
			return v
		}
		//pelsvet:allow floateq
		if got := m("loss(sim)"); got != want.measured {
			t.Errorf("%s MeasuredLoss = %.17g, want pinned %.17g", n, got, want.measured)
		}
		//pelsvet:allow floateq
		if got := m("gamma(sim)"); got != want.gammaTail {
			t.Errorf("%s GammaTail = %.17g, want pinned %.17g", n, got, want.gammaTail)
		}
		//pelsvet:allow floateq
		if got := m("redloss"); got != want.redLossTail {
			t.Errorf("%s RedLossTail = %.17g, want pinned %.17g", n, got, want.redLossTail)
		}
		if got := uint64(m("events")); got != want.events {
			t.Errorf("%s Events = %d, want pinned %d", n, got, want.events)
		}
	}
}
