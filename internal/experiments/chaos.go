package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"time"

	"repro/internal/aqm"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/packet"
)

// ChaosTestbedConfig parameterizes the simulated chaos run: the standard
// bar-bell testbed with a fault plan on each direction of the bottleneck
// and a gateway swap (new RouterID, epoch counter reset to zero) at
// SwapAt. Everything is driven by the simulation clock, so a run is a
// pure function of its seeds: two runs with the same config produce
// byte-identical observability output.
type ChaosTestbedConfig struct {
	// Seed drives the testbed; Seed+1 and Seed+2 seed the forward and
	// reverse fault injectors.
	Seed int64
	// Duration is the total simulated time.
	Duration time.Duration
	// Testbed is the underlying bar-bell setup.
	Testbed TestbedConfig
	// Forward is the data-path fault plan (bottleneck R1→R2); Reverse the
	// feedback-path plan (R2→R1, where the ACKs travel).
	Forward, Reverse fault.Plan
	// SwapAt kills the feedback gateway and brings up a replacement with
	// NewRouterID mid-stream; 0 disables the swap.
	SwapAt      time.Duration
	NewRouterID int
	// Window sizes the pre/post-fault rate windows: pre is
	// [SwapAt−Window, SwapAt), post is [Duration−Window, Duration).
	Window time.Duration
}

// DefaultChaosTestbedConfig schedules one fault of every kind and a
// gateway swap, with quiet margins around the swap so reconvergence is
// measurable: burst loss at 3s, a hard link flap at 7s, feedback
// starvation at 9s, corruption plus reverse-path reordering and
// duplication at 11s, and the gateway swap at 14s. The last 10 seconds
// are fault-free.
func DefaultChaosTestbedConfig() ChaosTestbedConfig {
	sec := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	return ChaosTestbedConfig{
		Seed:     1,
		Duration: 24 * time.Second,
		Testbed:  DefaultTestbedConfig(),
		Forward: fault.Plan{
			Events: []fault.Event{
				{Kind: fault.KindBurstLoss, From: sec(3), To: sec(5),
					PGoodBad: 0.05, PBadGood: 0.3, LossGood: 0, LossBad: 0.5},
				{Kind: fault.KindLinkDown, From: sec(7), To: sec(7.4)},
				{Kind: fault.KindStarveFeedback, From: sec(9), To: sec(10)},
				{Kind: fault.KindCorrupt, From: sec(11), To: sec(11.5), Prob: 0.02},
			},
		},
		Reverse: fault.Plan{
			Events: []fault.Event{
				{Kind: fault.KindReorder, From: sec(11), To: sec(12), Prob: 0.3,
					MaxDelay: 20 * time.Millisecond},
				{Kind: fault.KindDuplicate, From: sec(11), To: sec(12), Prob: 0.3},
			},
		},
		SwapAt:      14 * time.Second,
		NewRouterID: 99,
		Window:      2 * time.Second,
	}
}

// ChaosTestbedResult is the outcome of one simulated chaos run.
type ChaosTestbedResult struct {
	Config ChaosTestbedConfig
	Events uint64
	// PreRate and PostRate are the aggregate PELS rates (kb/s, summed
	// over flows) in the windows before the gateway swap and at the end
	// of the run; Ratio is PostRate/PreRate — the reconvergence measure.
	PreRate, PostRate, Ratio float64
	// GreenDropsAfter counts green-queue drops after the swap — the
	// green-layer protection check (must be zero: faults may kill green
	// packets in flight, but once they clear the AQM must never shed
	// base layer).
	GreenDropsAfter float64
	// ForwardStats and ReverseStats are the injectors' effect counters.
	ForwardStats, ReverseStats fault.Stats
	// Fingerprint is a sha256 over the full observability CSV — equal
	// fingerprints mean bit-identical runs (the determinism contract).
	Fingerprint string
	Obs         *obs.Registry
}

// ChaosTestbed runs the simulated chaos scenario.
func ChaosTestbed(cfg ChaosTestbedConfig) (ChaosTestbedResult, error) {
	tcfg := cfg.Testbed
	tcfg.Seed = cfg.Seed
	tb, err := NewTestbed(tcfg)
	if err != nil {
		return ChaosTestbedResult{}, err
	}
	// The fingerprint hashes every series in Obs, the delays and γ included.
	tb.RecordTraces()

	fwd := cfg.Forward
	fwd.Seed = cfg.Seed + 1
	fwdInj := fault.NewInjector(fwd)
	fwdInj.Instrument(tb.Obs, "fault.forward.")
	tb.Forward.Faults = fwdInj

	rev := cfg.Reverse
	rev.Seed = cfg.Seed + 2
	revInj := fault.NewInjector(rev)
	revInj.Instrument(tb.Obs, "fault.reverse.")
	tb.Reverse.Faults = revInj

	if cfg.SwapAt > 0 {
		tb.Eng.At(cfg.SwapAt, func() {
			// Kill the feedback gateway and bring up its replacement:
			// new RouterID, epoch counter back at zero, fresh arrival
			// window. The replacement reuses the registry (and so the
			// feedback_loss series) — continuity of observation across
			// the discontinuity of identity.
			tb.Feedback.Stop()
			tb.Feedback = aqm.NewFeedback(tb.Eng, aqm.FeedbackConfig{
				RouterID: cfg.NewRouterID,
				Interval: tcfg.FeedbackInterval,
				Capacity: tcfg.PELSCapacity(),
				Obs:      tb.Obs,
			})
			tb.Forward.Proc = tb.Feedback
		})
	}

	if err := tb.Run(cfg.Duration); err != nil {
		return ChaosTestbedResult{}, err
	}

	res := ChaosTestbedResult{
		Config:       cfg,
		Events:       tb.Eng.Processed(),
		ForwardStats: fwdInj.Stats(),
		ReverseStats: revInj.Stats(),
		Obs:          tb.Obs,
	}
	for _, ts := range tb.RateSeries {
		res.PreRate += ts.MeanBetween(cfg.SwapAt-cfg.Window, cfg.SwapAt)
		res.PostRate += ts.MeanBetween(cfg.Duration-cfg.Window, cfg.Duration)
	}
	if res.PreRate > 0 {
		res.Ratio = res.PostRate / res.PreRate
	}
	if green := tb.DropSeries[packet.Green]; green != nil {
		for it := green.Iter(green.Search(cfg.SwapAt), green.Len()); it.Next(); {
			res.GreenDropsAfter += it.Sample().Value
		}
	}

	h := sha256.New()
	if err := tb.Obs.WriteCSV(h); err != nil {
		return ChaosTestbedResult{}, fmt.Errorf("chaos: fingerprint: %w", err)
	}
	res.Fingerprint = hex.EncodeToString(h.Sum(nil))
	return res, nil
}

// Metrics flattens the result for pelsbench -json.
func (r ChaosTestbedResult) Metrics() map[string]float64 {
	return map[string]float64{
		"pre_rate_kbps":     r.PreRate,
		"post_rate_kbps":    r.PostRate,
		"reconverge_ratio":  r.Ratio,
		"green_drops_after": r.GreenDropsAfter,
		"fwd_fault_drops":   float64(r.ForwardStats.Drops),
		"fwd_corrupted":     float64(r.ForwardStats.Corrupted),
		"fwd_starved":       float64(r.ForwardStats.Starved),
		"rev_duplicated":    float64(r.ReverseStats.Duplicated),
		"rev_reordered":     float64(r.ReverseStats.Reordered),
	}
}

// FormatChaosTestbed renders the run summary.
func FormatChaosTestbed(r ChaosTestbedResult) string {
	var b strings.Builder
	cfg := r.Config
	fmt.Fprintf(&b, "%v run, gateway swap at %v (router %d), faults fwd=%d rev=%d\n",
		cfg.Duration, cfg.SwapAt, cfg.NewRouterID,
		len(cfg.Forward.Events), len(cfg.Reverse.Events))
	fmt.Fprintf(&b, "forward faults: %d drops, %d corrupted, %d starved of %d offered\n",
		r.ForwardStats.Drops, r.ForwardStats.Corrupted, r.ForwardStats.Starved,
		r.ForwardStats.Offered)
	fmt.Fprintf(&b, "reverse faults: %d duplicated, %d reordered of %d offered\n",
		r.ReverseStats.Duplicated, r.ReverseStats.Reordered, r.ReverseStats.Offered)
	fmt.Fprintf(&b, "aggregate rate: pre-swap %.0f kb/s, final %.0f kb/s (ratio %.3f)\n",
		r.PreRate, r.PostRate, r.Ratio)
	fmt.Fprintf(&b, "green drops after swap: %.0f\n", r.GreenDropsAfter)
	fmt.Fprintf(&b, "obs fingerprint: %s\n", r.Fingerprint[:16])
	return b.String()
}

func chaosTestbedAt(g geometry) (Result, error) {
	cfg := DefaultChaosTestbedConfig()
	cfg.Seed, cfg.Duration = g.seed, g.or(cfg.Duration)
	r, err := ChaosTestbed(cfg)
	if err != nil {
		return Result{}, err
	}
	return Result{Output: FormatChaosTestbed(r), Events: r.Events, Metrics: r.Metrics(), Obs: r.Obs}, nil
}
