package experiments

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"time"

	"repro/internal/cc"
	"repro/internal/fault"
	"repro/internal/fgs"
	"repro/internal/obs"
	"repro/internal/session"
	"repro/internal/units"
	"repro/internal/wire"
)

// WireLoopbackConfig parameterizes the live loopback testbed: a
// one-session session.Server streaming through the in-process emulator
// (marking gateway + priority-drop bottleneck) to a one-receiver
// wire.Swarm that hellos it and echoes feedback. Unlike every other
// experiment this one runs on the wall clock — it exercises the real
// codec, token bucket, timing wheel, and sockets-shaped I/O path rather
// than the event-driven simulator. The fault fields are zero for the plain
// loopback; the chaos run sets them (DefaultChaosWireConfig), and then the
// testbed exercises the resilience machinery rather than
// bit-reproducibility (that is the simulated chaos testbed's job).
type WireLoopbackConfig struct {
	// Capacity is the bottleneck bandwidth.
	Capacity units.BitRate
	// Delay is the one-way propagation delay of each direction.
	Delay time.Duration
	// QueueBytes bounds the bottleneck buffer.
	QueueBytes int
	// Interval is the gateway's feedback epoch (the MKC control period).
	Interval time.Duration
	// Frame is the FGS packetization of the source.
	Frame fgs.FrameSpec
	// FrameInterval is the video frame period.
	FrameInterval time.Duration
	// MKC parameterizes the rate controller.
	MKC cc.MKCConfig
	// Frames is how many frames to stream.
	Frames int
	// Seed seeds the emulated-loss process (the link injects congestion
	// through bandwidth, so it only matters if loss is set) and, at Seed+1
	// and Seed+2, the forward and reverse fault injectors.
	Seed int64
	// Forward and Reverse are the per-direction fault plans, with time
	// measured from emulator creation; an empty plan injects nothing.
	Forward, Reverse fault.Plan
	// SwapAfter swaps the gateway (RouterID 1 → NewRouterID) that long
	// into the stream through a wire.MarkerSwitch; 0 disables.
	SwapAfter   time.Duration
	NewRouterID int
	// StaleTimeout arms the session's stale-feedback watchdog; ProbeIdle
	// arms the receiver's liveness probe.
	StaleTimeout time.Duration
	ProbeIdle    time.Duration
}

// DefaultWireLoopbackConfig is the regime of the wire package's own
// convergence test: small packets so γ quantization is fine, and a high
// α so the equilibrium loss p* ≈ 9% makes the red probes visible.
func DefaultWireLoopbackConfig() WireLoopbackConfig {
	return WireLoopbackConfig{
		Capacity:      3 * units.Mbps,
		Delay:         2 * time.Millisecond,
		QueueBytes:    3000,
		Interval:      10 * time.Millisecond,
		Frame:         fgs.FrameSpec{PacketSize: 100, TotalPackets: 80, GreenPackets: 8},
		FrameInterval: 10 * time.Millisecond,
		MKC: cc.MKCConfig{
			Alpha:       150 * units.Kbps,
			Beta:        0.5,
			InitialRate: 500 * units.Kbps,
			MinRate:     64 * units.Kbps,
			DedupEpochs: true,
		},
		Frames: 200,
	}
}

// DefaultChaosWireConfig is the loopback under faults: ~3.5s of stream
// with a burst-loss episode, a hard link flap, reverse-path duplication
// and reordering, and a gateway swap at 2s, with the session's watchdog
// and the receiver's probes armed.
func DefaultChaosWireConfig() WireLoopbackConfig {
	cfg := DefaultWireLoopbackConfig()
	cfg.Frames = 350
	cfg.Seed = 1
	cfg.Forward = fault.Plan{
		Events: []fault.Event{
			{Kind: fault.KindBurstLoss, From: 500 * time.Millisecond, To: time.Second,
				PGoodBad: 0.05, PBadGood: 0.3, LossGood: 0, LossBad: 0.5},
			{Kind: fault.KindLinkDown, From: 1200 * time.Millisecond, To: 1500 * time.Millisecond},
		},
	}
	cfg.Reverse = fault.Plan{
		Events: []fault.Event{
			{Kind: fault.KindDuplicate, From: 1600 * time.Millisecond, To: 1900 * time.Millisecond, Prob: 0.3},
			{Kind: fault.KindReorder, From: 1600 * time.Millisecond, To: 1900 * time.Millisecond, Prob: 0.3,
				MaxDelay: 10 * time.Millisecond},
		},
	}
	cfg.SwapAfter = 2 * time.Second
	cfg.NewRouterID = 2
	cfg.StaleTimeout = 150 * time.Millisecond
	cfg.ProbeIdle = 100 * time.Millisecond
	return cfg
}

// WireLoopbackResult is the outcome of one loopback stream.
type WireLoopbackResult struct {
	// Config echoes the inputs.
	Config WireLoopbackConfig
	// Elapsed is the wall-clock duration of the stream.
	Elapsed time.Duration
	// Sender and Receiver are the endpoint counters at the end: Sender is
	// the server's one session.
	Sender   session.Stats
	Receiver wire.ReceiverStats
	// Link is the bottleneck's view; Forward and Reverse are the fault
	// injectors' (zero with no plan).
	Link             wire.LinkStats
	Forward, Reverse fault.Stats
	// Goodput is the delivered wire bitrate over the arrival interval.
	Goodput units.BitRate
	// Obs is the run's metric registry: gateway, server, and fault
	// counters.
	Obs *obs.Registry
}

// WireLoopback streams cfg.Frames FGS frames through the emulator, under
// cfg's faults, and returns the final statistics.
func WireLoopback(cfg WireLoopbackConfig) (WireLoopbackResult, error) {
	reg := obs.NewRegistry()
	gateway := func(id int) *wire.Gateway {
		// Registering against the same registry replaces the gateway
		// gauges.
		return wire.NewGateway(wire.GatewayConfig{
			RouterID: id,
			Interval: cfg.Interval,
			Capacity: cfg.Capacity,
			Obs:      reg,
		})
	}
	sw := wire.NewMarkerSwitch(gateway(1))
	fwd := injector(cfg.Forward, cfg.Seed+1, reg, "fault.forward.")
	rev := injector(cfg.Reverse, cfg.Seed+2, reg, "fault.reverse.")
	emu := wire.NewEmulator(wire.EmulatorConfig{
		AtoB: wire.LinkConfig{
			Bandwidth:  cfg.Capacity,
			Delay:      cfg.Delay,
			QueueBytes: cfg.QueueBytes,
			Seed:       cfg.Seed,
			Marker:     sw,
			Faults:     fwd,
		},
		BtoA: wire.LinkConfig{Delay: cfg.Delay, Faults: rev},
	})
	defer emu.Close()

	recv, err := wire.NewSwarm(wire.SwarmConfig{
		Server:    emu.A().LocalAddr(),
		Receivers: 1,
		ProbeIdle: cfg.ProbeIdle,
		Listen:    func() (net.PacketConn, error) { return emu.B(), nil },
	}, time.Now())
	if err != nil {
		return WireLoopbackResult{}, err
	}
	if cfg.SwapAfter > 0 {
		// The old gateway dies with its epoch history; the new one starts
		// at epoch zero under a new identity.
		swap := time.AfterFunc(cfg.SwapAfter, func() { sw.Set(gateway(cfg.NewRouterID)) })
		defer swap.Stop()
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
	})
	if err != nil {
		cancel()
		<-recvDone
		return WireLoopbackResult{}, fmt.Errorf("wire loopback: %w", err)
	}
	// Let the queue and delay line drain before the final snapshot.
	time.Sleep(cfg.Delay + 100*time.Millisecond)
	res := WireLoopbackResult{
		Config:   cfg,
		Elapsed:  time.Since(start),
		Sender:   sender,
		Receiver: recv.Stats()[0],
		Link:     emu.StatsAtoB(),
		Obs:      reg,
	}
	if fwd != nil {
		res.Forward = fwd.Stats()
	}
	if rev != nil {
		res.Reverse = rev.Stats()
	}
	cancel()
	<-recvDone
	res.Goodput = res.Receiver.Goodput()
	return res, nil
}

// injector arms plan on one direction of the emulated link, seeded with
// seed and counted in reg under prefix; nil for an empty plan, so a
// fault-free link takes no injector at all.
func injector(plan fault.Plan, seed int64, reg *obs.Registry, prefix string) *fault.Injector {
	if len(plan.Events) == 0 {
		return nil
	}
	plan.Seed = seed
	inj := fault.NewInjector(plan)
	inj.Instrument(reg, prefix)
	return inj
}

// streamOne is the end host of the emulator experiments: a one-session
// server on emu.A() that admits the receiver's hello, streams cfg, and
// exits once the session has ended. The run ends when the server does, not
// when the receiver hears the Close, which a faulted forward path may
// drop. It returns the session's final counters, read from the *Session
// the table held while it streamed (Session.Stats stays valid after it
// closes).
func streamOne(ctx context.Context, emu *wire.Emulator, reg *obs.Registry, cfg session.Config) (session.Stats, error) {
	srv, err := session.NewServer(session.ServerConfig{
		Conn:         emu.A(),
		Clock:        wire.SystemClock{},
		Session:      cfg,
		ExitWhenIdle: true,
		Obs:          reg,
	})
	if err != nil {
		return session.Stats{}, err
	}
	runErr := make(chan error, 1)
	go func() { runErr <- srv.Run(ctx) }()
	poll := time.NewTicker(time.Millisecond)
	defer poll.Stop()
	var sess *session.Session
	for {
		select {
		case err := <-runErr:
			switch {
			case err != nil:
				return session.Stats{}, err
			case ctx.Err() != nil:
				return session.Stats{}, ctx.Err()
			case sess == nil:
				return session.Stats{}, errors.New("the session ended before it was seen in the table")
			}
			return sess.Stats(), nil
		case <-poll.C:
			if sess == nil && srv.Stats().Admitted > 0 {
				srv.Table().Range(func(_ session.Key, s *session.Session) bool {
					sess = s
					return false
				})
			}
		}
	}
}

// Metrics flattens the result into the named scalars surfaced through
// pelsbench -json: goodput, per-color delivery and loss, the final
// controller state, and the resilience machinery's counters.
func (r WireLoopbackResult) Metrics() map[string]float64 {
	m := map[string]float64{
		"goodput_bps":     float64(r.Goodput),
		"capacity_bps":    float64(r.Config.Capacity),
		"rate_bps":        float64(r.Sender.Rate),
		"gamma":           r.Sender.Gamma,
		"frames":          float64(r.Receiver.Frames),
		"datagrams_sent":  float64(r.Sender.Datagrams),
		"datagrams_rcvd":  float64(r.Receiver.Datagrams),
		"overflow_drops":  float64(r.Link.OverflowDrops),
		"stale_decays":    float64(r.Sender.StaleDecays),
		"recoveries":      float64(r.Sender.Recoveries),
		"router_changes":  float64(r.Sender.RouterChanges),
		"probes":          float64(r.Receiver.Probes),
		"fault_drops":     float64(r.Link.FaultDrops),
		"fwd_fault_drops": float64(r.Forward.Drops),
		"rev_duplicated":  float64(r.Reverse.Duplicated),
		"rev_reordered":   float64(r.Reverse.Reordered),
	}
	for _, color := range wire.ReportColors(r.Receiver.Colors) {
		c := r.Receiver.Colors[color]
		name := strings.ToLower(color.String())
		m[name+"_rcvd"] = float64(c.Received)
		m[name+"_lost"] = float64(c.Lost)
		m[name+"_loss"] = c.LossRate()
	}
	return m
}

// Datagrams is the event count surfaced through the runner: every
// datagram the two endpoints put on or took off the wire.
func (r WireLoopbackResult) Datagrams() uint64 {
	return r.Sender.Datagrams + r.Receiver.Datagrams + r.Receiver.FeedbackSent
}

// FormatWireLoopback renders the result as the per-color table the
// bench prints.
func FormatWireLoopback(r WireLoopbackResult) string {
	var b strings.Builder
	cfg := r.Config
	fmt.Fprintf(&b, "bottleneck %v, epoch %v, %d frames of %d B packets in %v\n",
		cfg.Capacity, cfg.Interval, cfg.Frames, cfg.Frame.PacketSize, r.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(&b, "sender: rate %v  gamma %.3f  last loss %+.3f  feedback accepted %d\n",
		r.Sender.Rate, r.Sender.Gamma, r.Sender.LastLoss, r.Sender.FeedbackAccepted)
	fmt.Fprintf(&b, "goodput %v (%.1f%% of capacity), %d epochs observed\n",
		r.Goodput, 100*float64(r.Goodput)/float64(cfg.Capacity), r.Receiver.Epochs)
	fmt.Fprintf(&b, "%-8s %10s %10s %10s\n", "color", "received", "lost", "loss")
	for _, color := range wire.ReportColors(r.Receiver.Colors) {
		c := r.Receiver.Colors[color]
		fmt.Fprintf(&b, "%-8s %10d %10d %9.1f%%\n",
			strings.ToLower(color.String()), c.Received, c.Lost, 100*c.LossRate())
	}
	return b.String()
}

// FormatChaosWire renders a faulted run: the swap, the resilience
// counters, the faults, and delivery per color.
func FormatChaosWire(r WireLoopbackResult) string {
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
	for _, color := range wire.ReportColors(r.Receiver.Colors) {
		c := r.Receiver.Colors[color]
		fmt.Fprintf(&b, "%-8s %10d received %10d lost (%5.1f%%)\n",
			strings.ToLower(color.String()), c.Received, c.Lost, 100*c.LossRate())
	}
	return b.String()
}
