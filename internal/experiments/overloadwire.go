package experiments

import (
	"context"
	"fmt"
	"net"
	"strings"
	"time"

	"repro/internal/cc"
	"repro/internal/fault"
	"repro/internal/fgs"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/session"
	"repro/internal/units"
	"repro/internal/wire"
)

// OverloadWireConfig parameterizes the overload-resilience drill: a live
// multi-session server with deliberately few slots, a hello storm on the
// inbound path (duplicated and dropped hellos), and twice as many
// receivers as the server admits. The run exercises the whole PR-10
// control plane at once — Reject with retry-after, jittered backoff and
// re-admission as slots free, layer shedding past the occupancy
// watermark, restore as the flash crowd drains, and Close(complete) on
// every finished stream.
type OverloadWireConfig struct {
	// Capacity is the shared software bottleneck bandwidth.
	Capacity units.BitRate
	// QueueBytes bounds the bottleneck buffer.
	QueueBytes int
	// Epoch is the gateway feedback interval.
	Epoch time.Duration
	// Frame is the FGS packetization; FrameInterval the frame period.
	Frame         fgs.FrameSpec
	FrameInterval time.Duration
	// MKC parameterizes every session's rate controller.
	MKC cc.MKCConfig
	// FramesPerSession bounds each session, so slots recycle and the
	// rejected half of the crowd eventually streams.
	FramesPerSession int
	// MaxSessions is the admission limit (the crowd is 2x this).
	MaxSessions int
	// Receivers is the swarm size; 0 selects 2*MaxSessions.
	Receivers int
	// RejectRetryAfter is the hint carried in Reject datagrams.
	RejectRetryAfter time.Duration
	// Overload is the shedding policy. Capacity here is the *policy*
	// ceiling (not the physical bottleneck); the default config sets it
	// loose so table occupancy, not demand, drives the shed.
	Overload session.OverloadConfig
	// Timeout aborts the drill if the crowd never finishes.
	Timeout time.Duration
	// Seed drives the hello-storm fault plan and the swarm jitter.
	Seed int64
}

// DefaultOverloadWireConfig is the CI regime: 8 slots, 16 receivers,
// ~1.5s streams, occupancy-driven shedding with a fast controller so the
// restore path is observable inside a short run.
func DefaultOverloadWireConfig() OverloadWireConfig {
	return OverloadWireConfig{
		Capacity:   4 * units.Mbps,
		QueueBytes: 24000,
		Epoch:      10 * time.Millisecond,
		// The base-layer floor must clear the bottleneck even at full
		// occupancy: 2 green packets of 200 B per 20 ms frame is
		// 160 kbps/session, 1.3 Mbps for 8 sessions against 4 Mbps — so
		// zero green loss is an assertable invariant, not luck.
		Frame:         fgs.FrameSpec{PacketSize: 200, TotalPackets: 40, GreenPackets: 2},
		FrameInterval: 20 * time.Millisecond,
		MKC: cc.MKCConfig{
			Alpha:       50 * units.Kbps,
			Beta:        0.5,
			InitialRate: 300 * units.Kbps,
			MinRate:     64 * units.Kbps,
			DedupEpochs: true,
		},
		FramesPerSession: 100,
		MaxSessions:      8,
		RejectRetryAfter: 300 * time.Millisecond,
		Overload: session.OverloadConfig{
			Capacity: 8 * units.Mbps,
			Hold:     200 * time.Millisecond,
			Every:    25 * time.Millisecond,
		},
		Timeout: 90 * time.Second,
	}
}

// OverloadWireResult is the outcome of one overload drill.
type OverloadWireResult struct {
	Config  OverloadWireConfig
	Elapsed time.Duration
	// Server is the final server-side snapshot (rejects by reason, shed
	// and restore transitions, stuck/idle reaps).
	Server session.ServerStats
	// Completed is how many swarm receivers reached Close(complete).
	Completed int
	// Swarm aggregates: every receiver's control-plane and delivery view.
	Rejects, Closes, Reconnects, Hellos uint64
	Colors                              map[packet.Color]wire.ColorCount
	// Faults is the injector's view of the hello storm it ran.
	Faults fault.Stats
	// Obs is the run's full registry (gateway, sessions, shards, fault).
	Obs *obs.Registry
}

// OverloadWire runs the drill: server under hello storm, flash crowd of
// 2x capacity, poll until every receiver completes, then let the
// controller unwind so the restore path registers.
func OverloadWire(cfg OverloadWireConfig) (OverloadWireResult, error) {
	if cfg.Receivers <= 0 {
		cfg.Receivers = 2 * cfg.MaxSessions
	}
	reg := obs.NewRegistry()
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return OverloadWireResult{}, err
	}
	inj := fault.NewInjector(fault.HelloStormPlan(cfg.Seed))
	inj.Instrument(reg, "fault.")

	gw := wire.NewGateway(wire.GatewayConfig{
		RouterID: 1,
		Interval: cfg.Epoch,
		Capacity: cfg.Capacity,
		Obs:      reg,
	})
	shaped := wire.NewShapedConn(conn, wire.LinkConfig{
		Bandwidth:  cfg.Capacity,
		QueueBytes: cfg.QueueBytes,
		Marker:     gw,
	})
	defer shaped.Close()

	srv, err := session.NewServer(session.ServerConfig{
		// The storm degrades only what arrives: hellos are duplicated
		// and dropped before the demux sees them, data is untouched.
		Conn:  wire.NewFaultConn(conn, inj),
		Out:   shaped,
		Clock: wire.SystemClock{},
		Session: session.Config{
			Frame:         cfg.Frame,
			FrameInterval: cfg.FrameInterval,
			MKC:           cfg.MKC,
			MaxFrames:     cfg.FramesPerSession,
		},
		MaxSessions:      cfg.MaxSessions,
		IdleTimeout:      5 * time.Second,
		RejectRetryAfter: cfg.RejectRetryAfter,
		Overload:         cfg.Overload,
		Obs:              reg,
	})
	if err != nil {
		return OverloadWireResult{}, err
	}

	swarm, err := wire.NewSwarm(wire.SwarmConfig{
		Server:     conn.LocalAddr(),
		Receivers:  cfg.Receivers,
		Seed:       cfg.Seed + 1,
		Ramp:       300 * time.Millisecond,
		HelloRetry: 150 * time.Millisecond,
		Reconnect:  true,
	}, time.Now())
	if err != nil {
		return OverloadWireResult{}, err
	}

	ctx, cancel := context.WithTimeout(context.Background(), cfg.Timeout)
	defer cancel()
	srvErr := make(chan error, 1)
	go func() { srvErr <- srv.Run(ctx) }()
	swarmErr := make(chan error, 1)
	go func() { swarmErr <- swarm.Run(ctx) }()

	start := time.Now()
	done := func() int {
		n := 0
		for _, st := range swarm.Stats() {
			if st.LastClose == wire.ReasonComplete {
				n++
			}
		}
		return n
	}
	completed := 0
	for completed < cfg.Receivers && ctx.Err() == nil {
		time.Sleep(100 * time.Millisecond)
		completed = done()
	}
	elapsed := time.Since(start)
	if ctx.Err() != nil {
		cancel()
		<-srvErr
		<-swarmErr
		return OverloadWireResult{}, fmt.Errorf(
			"overload wire: %d/%d receivers completed before timeout %v",
			completed, cfg.Receivers, cfg.Timeout)
	}
	// The crowd is gone; give the controller a few empty evaluation
	// periods so the shed unwinds and the restore counter registers.
	unwind := 3 * cfg.Overload.Hold
	if unwind < time.Second {
		unwind = time.Second
	}
	time.Sleep(unwind)

	res := OverloadWireResult{
		Config:    cfg,
		Elapsed:   elapsed,
		Server:    srv.Stats(),
		Completed: completed,
		Colors:    map[packet.Color]wire.ColorCount{},
		Faults:    inj.Stats(),
		Obs:       reg,
	}
	for _, st := range swarm.Stats() {
		res.Rejects += st.Rejects
		res.Closes += st.Closes
		res.Reconnects += st.Reconnects
		res.Hellos += st.HellosSent
		for c, count := range st.Colors {
			agg := res.Colors[c]
			agg.Received += count.Received
			agg.Lost += count.Lost
			agg.Bytes += count.Bytes
			res.Colors[c] = agg
		}
	}
	cancel()
	<-srvErr
	<-swarmErr
	return res, nil
}

// Metrics flattens the drill into pelsbench -json scalars.
func (r OverloadWireResult) Metrics() map[string]float64 {
	m := map[string]float64{
		"receivers":       float64(r.Config.Receivers),
		"completed":       float64(r.Completed),
		"admitted":        float64(r.Server.Admitted),
		"rejected":        float64(r.Server.Rejected),
		"rejected_full":   float64(r.Server.RejectedFull),
		"rejected_drain":  float64(r.Server.RejectedDrain),
		"rejected_config": float64(r.Server.RejectedConfig),
		"admit_races":     float64(r.Server.AdmitRaces),
		"sheds":           float64(r.Server.Sheds),
		"restores":        float64(r.Server.Restores),
		"shed_level_end":  float64(r.Server.ShedLevel),
		"reaped_stuck":    float64(r.Server.ReapedStuck),
		"swarm_rejects":   float64(r.Rejects),
		"swarm_closes":    float64(r.Closes),
		"reconnects":      float64(r.Reconnects),
		"hellos":          float64(r.Hellos),
		"fault_dup":       float64(r.Faults.Duplicated),
		"fault_drops":     float64(r.Faults.Drops),
	}
	for _, color := range wire.ReportColors(r.Colors) {
		c := r.Colors[color]
		name := color.String()
		m[name+"_rcvd"] = float64(c.Received)
		m[name+"_lost"] = float64(c.Lost)
		m[name+"_loss"] = c.LossRate()
	}
	return m
}

// Datagrams is the event count surfaced through the runner.
func (r OverloadWireResult) Datagrams() uint64 {
	return r.Server.Datagrams + r.Hellos + r.Rejects + r.Closes
}

// FormatOverloadWire renders the drill outcome.
func FormatOverloadWire(r OverloadWireResult) string {
	var b strings.Builder
	cfg := r.Config
	fmt.Fprintf(&b, "%d receivers vs %d slots, bottleneck %v, %d frames/session, finished in %v\n",
		cfg.Receivers, cfg.MaxSessions, cfg.Capacity, cfg.FramesPerSession,
		r.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(&b, "admission: admitted %d  rejected %d (full %d, drain %d, config %d)  races %d\n",
		r.Server.Admitted, r.Server.Rejected, r.Server.RejectedFull,
		r.Server.RejectedDrain, r.Server.RejectedConfig, r.Server.AdmitRaces)
	fmt.Fprintf(&b, "overload: %d shed / %d restore transitions, final level %d, load %.2f\n",
		r.Server.Sheds, r.Server.Restores, r.Server.ShedLevel, r.Server.Load)
	fmt.Fprintf(&b, "swarm: %d completed, %d rejects seen, %d closes, %d reconnects, %d hellos (storm dup %d, dropped %d)\n",
		r.Completed, r.Rejects, r.Closes, r.Reconnects, r.Hellos,
		r.Faults.Duplicated, r.Faults.Drops)
	fmt.Fprintf(&b, "%-8s %10s %10s %10s\n", "color", "received", "lost", "loss")
	for _, color := range wire.ReportColors(r.Colors) {
		c := r.Colors[color]
		fmt.Fprintf(&b, "%-8s %10d %10d %9.1f%%\n",
			strings.ToLower(color.String()), c.Received, c.Lost, 100*c.LossRate())
	}
	return b.String()
}
