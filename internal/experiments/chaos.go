package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"time"

	"repro/internal/aqm"
	"repro/internal/fault"
	"repro/internal/packet"
)

// The chaos testbed's fault plan schedules one fault of every kind, with
// quiet margins around the gateway swap at 14 s so reconvergence is
// measurable: burst loss at 3 s, a hard link flap at 7 s, feedback
// starvation at 9 s, corruption plus reverse-path reordering and
// duplication at 11 s. The last 10 seconds are fault-free. chaosForward is
// the data path (bottleneck R1→R2), chaosReverse the feedback path (R2→R1,
// where the ACKs travel).
var (
	chaosForward = fault.Plan{Events: []fault.Event{
		{Kind: fault.KindBurstLoss, From: 3 * time.Second, To: 5 * time.Second,
			PGoodBad: 0.05, PBadGood: 0.3, LossGood: 0, LossBad: 0.5},
		{Kind: fault.KindLinkDown, From: 7 * time.Second, To: 7400 * time.Millisecond},
		{Kind: fault.KindStarveFeedback, From: 9 * time.Second, To: 10 * time.Second},
		{Kind: fault.KindCorrupt, From: 11 * time.Second, To: 11500 * time.Millisecond, Prob: 0.02},
	}}
	chaosReverse = fault.Plan{Events: []fault.Event{
		{Kind: fault.KindReorder, From: 11 * time.Second, To: 12 * time.Second, Prob: 0.3,
			MaxDelay: 20 * time.Millisecond},
		{Kind: fault.KindDuplicate, From: 11 * time.Second, To: 12 * time.Second, Prob: 0.3},
	}}
)

// chaosTestbedAt runs the simulated chaos scenario: the standard bar-bell
// testbed for 24 s (unless the geometry says otherwise) with the fault
// plan on each direction of the bottleneck, seeded with seed+1 forward and
// seed+2 reverse, and a gateway swap (new RouterID 99, epoch counter reset
// to zero) at 14 s. Everything is driven by the simulation clock, so a run
// is a pure function of its seed: two runs at one seed produce
// byte-identical observability output, which the printed fingerprint (the
// head of the SHA-256 over the obs CSV) shows. The aggregate PELS rates,
// summed over flows, are taken over the 2 s before the swap and the last
// 2 s of the run; their ratio is the reconvergence measure. Green-queue
// drops after the swap must be zero: faults may kill green packets in
// flight, but once they clear the AQM must never shed the base layer.
func chaosTestbedAt(g geometry) (Result, error) {
	const swapAt, newRouterID, window = 14 * time.Second, 99, 2 * time.Second
	duration := g.or(24 * time.Second)
	tcfg := DefaultTestbedConfig()
	tcfg.Seed = g.seed
	tb, err := NewTestbed(tcfg)
	if err != nil {
		return Result{}, err
	}
	// The fingerprint hashes every series in Obs, the delays and γ included.
	tb.RecordTraces()
	fwd := injector(chaosForward, g.seed+1, tb.Obs, "fault.forward.")
	rev := injector(chaosReverse, g.seed+2, tb.Obs, "fault.reverse.")
	tb.Forward.Faults, tb.Reverse.Faults = fwd, rev

	tb.Eng.At(swapAt, func() {
		// Kill the feedback gateway and bring up its replacement: new
		// RouterID, epoch counter back at zero, fresh arrival window. The
		// replacement reuses the registry (and so the feedback_loss series)
		// — continuity of observation across the discontinuity of identity.
		tb.Feedback.Stop()
		tb.Feedback = aqm.NewFeedback(tb.Eng, aqm.FeedbackConfig{
			RouterID: newRouterID,
			Interval: tcfg.FeedbackInterval,
			Capacity: tcfg.PELSCapacity(),
			Obs:      tb.Obs,
		})
		tb.Forward.Proc = tb.Feedback
	})

	if err := tb.Run(duration); err != nil {
		return Result{}, err
	}

	var pre, post, ratio, greenAfter float64
	for _, ts := range tb.RateSeries {
		pre += ts.MeanBetween(swapAt-window, swapAt)
		post += ts.MeanBetween(duration-window, duration)
	}
	if pre > 0 {
		ratio = post / pre
	}
	if green := tb.DropSeries[packet.Green]; green != nil {
		for it := green.Iter(green.Search(swapAt), green.Len()); it.Next(); {
			greenAfter += it.Sample().Value
		}
	}
	fs, rs := fwd.Stats(), rev.Stats()
	m := map[string]float64{
		"pre_rate_kbps":     pre,
		"post_rate_kbps":    post,
		"reconverge_ratio":  ratio,
		"green_drops_after": greenAfter,
		"fwd_fault_drops":   float64(fs.Drops),
		"fwd_corrupted":     float64(fs.Corrupted),
		"fwd_starved":       float64(fs.Starved),
		"rev_duplicated":    float64(rs.Duplicated),
		"rev_reordered":     float64(rs.Reordered),
	}

	h := sha256.New()
	if err := tb.Obs.WriteCSV(h); err != nil {
		return Result{}, fmt.Errorf("chaos: fingerprint: %w", err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%v run, gateway swap at %v (router %d), faults fwd=%d rev=%d\n",
		duration, swapAt, newRouterID, len(chaosForward.Events), len(chaosReverse.Events))
	fmt.Fprintf(&b, "forward faults: %.0f drops, %.0f corrupted, %.0f starved of %d offered\n",
		m["fwd_fault_drops"], m["fwd_corrupted"], m["fwd_starved"], fs.Offered)
	fmt.Fprintf(&b, "reverse faults: %.0f duplicated, %.0f reordered of %d offered\n",
		m["rev_duplicated"], m["rev_reordered"], rs.Offered)
	fmt.Fprintf(&b, "aggregate rate: pre-swap %.0f kb/s, final %.0f kb/s (ratio %.3f)\n",
		m["pre_rate_kbps"], m["post_rate_kbps"], m["reconverge_ratio"])
	fmt.Fprintf(&b, "green drops after swap: %.0f\n", m["green_drops_after"])
	fmt.Fprintf(&b, "obs fingerprint: %s\n", hex.EncodeToString(h.Sum(nil))[:16])
	return Result{Output: b.String(), Events: tb.Eng.Processed(), Metrics: m, Obs: tb.Obs}, nil
}
