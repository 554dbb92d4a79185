package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"time"

	"repro/internal/aqm"
	"repro/internal/cc"
	"repro/internal/fault"
	"repro/internal/fgs"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/session"
	"repro/internal/units"
	"repro/internal/wire"
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

// ChaosWireConfig parameterizes the live chaos run: the wire loopback
// stack (emulator, gateway, one-session server, receiver) with fault
// injectors on both directions, the session's stale-feedback watchdog and the
// receiver's liveness probes armed, and a live gateway swap through a
// wire.MarkerSwitch mid-stream. Timing is wall clock, so this run
// exercises the resilience machinery rather than bit-reproducibility
// (that is the testbed run's job).
type ChaosWireConfig struct {
	Capacity      units.BitRate
	Delay         time.Duration
	QueueBytes    int
	Interval      time.Duration
	Frame         fgs.FrameSpec
	FrameInterval time.Duration
	MKC           cc.MKCConfig
	Frames        int
	Seed          int64
	// Forward and Reverse are the per-direction fault plans, with time
	// measured from emulator creation.
	Forward, Reverse fault.Plan
	// SwapAfter swaps the gateway (RouterID 1 → NewRouterID) that long
	// into the stream; 0 disables.
	SwapAfter   time.Duration
	NewRouterID int
	// StaleTimeout/StaleDecay arm the session's watchdog; ProbeIdle arms
	// receiver probing.
	StaleTimeout time.Duration
	StaleDecay   float64
	ProbeIdle    time.Duration
}

// DefaultChaosWireConfig streams ~3.5s with a burst-loss episode, a hard
// link flap, reverse-path duplication, and a gateway swap at 2s.
func DefaultChaosWireConfig() ChaosWireConfig {
	base := DefaultWireLoopbackConfig()
	return ChaosWireConfig{
		Capacity:      base.Capacity,
		Delay:         base.Delay,
		QueueBytes:    base.QueueBytes,
		Interval:      base.Interval,
		Frame:         base.Frame,
		FrameInterval: base.FrameInterval,
		MKC:           base.MKC,
		Frames:        350,
		Seed:          1,
		Forward: fault.Plan{
			Events: []fault.Event{
				{Kind: fault.KindBurstLoss, From: 500 * time.Millisecond, To: time.Second,
					PGoodBad: 0.05, PBadGood: 0.3, LossGood: 0, LossBad: 0.5},
				{Kind: fault.KindLinkDown, From: 1200 * time.Millisecond, To: 1500 * time.Millisecond},
			},
		},
		Reverse: fault.Plan{
			Events: []fault.Event{
				{Kind: fault.KindDuplicate, From: 1600 * time.Millisecond, To: 1900 * time.Millisecond, Prob: 0.3},
				{Kind: fault.KindReorder, From: 1600 * time.Millisecond, To: 1900 * time.Millisecond, Prob: 0.3,
					MaxDelay: 10 * time.Millisecond},
			},
		},
		SwapAfter:    2 * time.Second,
		NewRouterID:  2,
		StaleTimeout: 150 * time.Millisecond,
		StaleDecay:   0.5,
		ProbeIdle:    100 * time.Millisecond,
	}
}

// ChaosWireResult is the outcome of one live chaos stream.
type ChaosWireResult struct {
	Config   ChaosWireConfig
	Elapsed  time.Duration
	Sender   session.Stats
	Receiver wire.ReceiverStats
	Link     wire.LinkStats
	Forward  fault.Stats
	Reverse  fault.Stats
	Goodput  units.BitRate
	Obs      *obs.Registry
}

// ChaosWire streams through the emulator under the fault plans.
func ChaosWire(cfg ChaosWireConfig) (ChaosWireResult, error) {
	reg := obs.NewRegistry()
	gwA := wire.NewGateway(wire.GatewayConfig{
		RouterID: 1,
		Interval: cfg.Interval,
		Capacity: cfg.Capacity,
		Obs:      reg,
	})
	sw := wire.NewMarkerSwitch(gwA)

	fwd := cfg.Forward
	fwd.Seed = cfg.Seed + 1
	fwdInj := fault.NewInjector(fwd)
	fwdInj.Instrument(reg, "fault.forward.")
	rev := cfg.Reverse
	rev.Seed = cfg.Seed + 2
	revInj := fault.NewInjector(rev)
	revInj.Instrument(reg, "fault.reverse.")

	emu := wire.NewEmulator(wire.EmulatorConfig{
		AtoB: wire.LinkConfig{
			Bandwidth:  cfg.Capacity,
			Delay:      cfg.Delay,
			QueueBytes: cfg.QueueBytes,
			Seed:       cfg.Seed,
			Marker:     sw,
			Faults:     fwdInj,
		},
		BtoA: wire.LinkConfig{Delay: cfg.Delay, Faults: revInj},
	})
	defer emu.Close()

	recv, err := wire.NewReceiver(emu.B(), wire.ReceiverConfig{
		Flow:      1,
		Obs:       reg,
		ProbeIdle: cfg.ProbeIdle,
		Peer:      emu.A().LocalAddr(),
	})
	if err != nil {
		return ChaosWireResult{}, err
	}

	var swapTimer *time.Timer
	if cfg.SwapAfter > 0 {
		swapTimer = time.AfterFunc(cfg.SwapAfter, func() {
			// The old gateway dies with its epoch history; the new one
			// starts at epoch zero under a new identity. Registering
			// against the same registry replaces the gateway gauges.
			sw.Set(wire.NewGateway(wire.GatewayConfig{
				RouterID: cfg.NewRouterID,
				Interval: cfg.Interval,
				Capacity: cfg.Capacity,
				Obs:      reg,
			}))
		})
		defer swapTimer.Stop()
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	recvDone := make(chan struct{})
	go func() { defer close(recvDone); _ = recv.Run(ctx) }()

	start := time.Now()
	sender, err := streamOne(ctx, emu, reg, session.Config{
		Frame:         cfg.Frame,
		FrameInterval: cfg.FrameInterval,
		MKC:           cfg.MKC,
		BurstBytes:    16 * cfg.Frame.PacketSize,
		MaxFrames:     cfg.Frames,
		StaleTimeout:  cfg.StaleTimeout,
		StaleDecay:    cfg.StaleDecay,
	})
	if err != nil {
		cancel()
		<-recvDone
		return ChaosWireResult{}, fmt.Errorf("chaos wire: %w", err)
	}
	time.Sleep(cfg.Delay + 100*time.Millisecond)
	res := ChaosWireResult{
		Config:   cfg,
		Elapsed:  time.Since(start),
		Sender:   sender,
		Receiver: recv.Stats(),
		Link:     emu.StatsAtoB(),
		Forward:  fwdInj.Stats(),
		Reverse:  revInj.Stats(),
		Obs:      reg,
	}
	cancel()
	<-recvDone
	res.Goodput = res.Receiver.Goodput()
	return res, nil
}

// Metrics flattens the result for pelsbench -json.
func (r ChaosWireResult) Metrics() map[string]float64 {
	m := map[string]float64{
		"goodput_bps":     float64(r.Goodput),
		"rate_bps":        float64(r.Sender.Rate),
		"gamma":           r.Sender.Gamma,
		"stale_decays":    float64(r.Sender.StaleDecays),
		"recoveries":      float64(r.Sender.Recoveries),
		"router_changes":  float64(r.Sender.RouterChanges),
		"probes":          float64(r.Receiver.Probes),
		"fault_drops":     float64(r.Link.FaultDrops),
		"fwd_fault_drops": float64(r.Forward.Drops),
		"rev_duplicated":  float64(r.Reverse.Duplicated),
		"rev_reordered":   float64(r.Reverse.Reordered),
	}
	for color, name := range map[packet.Color]string{
		packet.Green:  "green",
		packet.Yellow: "yellow",
		packet.Red:    "red",
	} {
		c := r.Receiver.Colors[color]
		m[name+"_rcvd"] = float64(c.Received)
		m[name+"_lost"] = float64(c.Lost)
		m[name+"_loss"] = c.LossRate()
	}
	return m
}

// Datagrams is the event count surfaced through the runner.
func (r ChaosWireResult) Datagrams() uint64 {
	return r.Sender.Datagrams + r.Receiver.Datagrams + r.Receiver.FeedbackSent
}

// FormatChaosWire renders the run summary.
func FormatChaosWire(r ChaosWireResult) string {
	var b strings.Builder
	cfg := r.Config
	fmt.Fprintf(&b, "%d frames through faulted emulator in %v (swap → router %d at %v)\n",
		cfg.Frames, r.Elapsed.Round(time.Millisecond), cfg.NewRouterID, cfg.SwapAfter)
	fmt.Fprintf(&b, "sender: rate %v  gamma %.3f  degrade %.3f  stale decays %d  recoveries %d  router changes %d\n",
		r.Sender.Rate, r.Sender.Gamma, r.Sender.Degrade,
		r.Sender.StaleDecays, r.Sender.Recoveries, r.Sender.RouterChanges)
	fmt.Fprintf(&b, "receiver: %d datagrams, %d probes, goodput %v\n",
		r.Receiver.Datagrams, r.Receiver.Probes, r.Goodput)
	fmt.Fprintf(&b, "faults: fwd %d drops (%d link-level), rev %d dup / %d reordered\n",
		r.Forward.Drops, r.Link.FaultDrops, r.Reverse.Duplicated, r.Reverse.Reordered)
	for _, color := range []packet.Color{packet.Green, packet.Yellow, packet.Red} {
		c := r.Receiver.Colors[color]
		fmt.Fprintf(&b, "%-8s %10d received %10d lost (%5.1f%%)\n",
			strings.ToLower(color.String()), c.Received, c.Lost, 100*c.LossRate())
	}
	return b.String()
}
