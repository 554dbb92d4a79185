package experiments

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/cc"
	"repro/internal/fgs"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/session"
	"repro/internal/units"
	"repro/internal/wire"
)

// WireLoopbackConfig parameterizes the live-stack loopback experiment:
// a one-session session.Server streaming through the in-process emulator
// (marking gateway + priority-drop bottleneck) to a wire.Receiver that
// hellos it and echoes feedback. Unlike every other experiment this one
// runs on the wall clock — it exercises the real codec, token bucket,
// timing wheel, and sockets-shaped I/O path rather than the event-driven
// simulator.
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
	// Seed seeds the emulated-loss process (the link here injects
	// congestion through bandwidth, so it only matters if Loss is set).
	Seed int64
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
	// Link is the bottleneck's view.
	Link wire.LinkStats
	// Goodput is the delivered wire bitrate over the arrival interval.
	Goodput units.BitRate
	// Obs is the run's metric registry: gateway, server, and receiver
	// counters.
	Obs *obs.Registry
}

// WireLoopback streams cfg.Frames FGS frames through the emulator and
// returns the converged statistics.
func WireLoopback(cfg WireLoopbackConfig) (WireLoopbackResult, error) {
	reg := obs.NewRegistry()
	gw := wire.NewGateway(wire.GatewayConfig{
		RouterID: 1,
		Interval: cfg.Interval,
		Capacity: cfg.Capacity,
		Obs:      reg,
	})
	emu := wire.NewEmulator(wire.EmulatorConfig{
		AtoB: wire.LinkConfig{
			Bandwidth:  cfg.Capacity,
			Delay:      cfg.Delay,
			QueueBytes: cfg.QueueBytes,
			Seed:       cfg.Seed,
			Marker:     gw,
		},
		BtoA: wire.LinkConfig{Delay: cfg.Delay},
	})
	defer emu.Close()

	recv, err := wire.NewReceiver(emu.B(), wire.ReceiverConfig{
		Flow: 1,
		Obs:  reg,
		Peer: emu.A().LocalAddr(),
	})
	if err != nil {
		return WireLoopbackResult{}, err
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
		Receiver: recv.Stats(),
		Link:     emu.StatsAtoB(),
		Obs:      reg,
	}
	cancel()
	<-recvDone
	res.Goodput = res.Receiver.Goodput()
	return res, nil
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
// pelsbench -json: goodput, per-color delivery and loss, and the final
// controller state.
func (r WireLoopbackResult) Metrics() map[string]float64 {
	m := map[string]float64{
		"goodput_bps":    float64(r.Goodput),
		"capacity_bps":   float64(r.Config.Capacity),
		"rate_bps":       float64(r.Sender.Rate),
		"gamma":          r.Sender.Gamma,
		"frames":         float64(r.Receiver.Frames),
		"datagrams_sent": float64(r.Sender.Datagrams),
		"datagrams_rcvd": float64(r.Receiver.Datagrams),
		"overflow_drops": float64(r.Link.OverflowDrops),
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
	for _, color := range []packet.Color{packet.Green, packet.Yellow, packet.Red} {
		c := r.Receiver.Colors[color]
		fmt.Fprintf(&b, "%-8s %10d %10d %9.1f%%\n",
			strings.ToLower(color.String()), c.Received, c.Lost, 100*c.LossRate())
	}
	return b.String()
}
