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
	"repro/internal/packet"
	"repro/internal/session"
	"repro/internal/units"
	"repro/internal/wire"
)

// The live entries (wire-loopback, chaos-wire, overload-wire) run the
// production server and receivers — the real codec, token bucket, timing
// wheel and socket-shaped I/O — on the wall clock rather than the
// simulator. They take only the geometry's seed, and their numbers vary
// from run to run, so their claim rows are invariants (green lossless,
// red loss, every receiver served), never values.

// drillTimeout aborts a live run that never ends; drillPoll is how often
// a run checks whether it has.
const drillTimeout, drillPoll = 2 * time.Minute, 10 * time.Millisecond

// drill is a finished live run, as both ends saw it.
type drill struct {
	// elapsed runs from the start until done held or the server exited.
	elapsed time.Duration
	server  session.ServerStats
	recvs   []wire.ReceiverStats
	// events is Result.Events: every datagram either end put on the wire
	// or took off it. The server writes data and control (Reject, Close)
	// and reads hellos and feedback; each receiver reads data and control
	// and writes hellos and feedback.
	events uint64
}

// runDrill runs srv and sw under one timeout until done holds, checked
// every drillPoll, or srv exits of its own accord (ExitWhenIdle). It then
// sleeps drain, so queues, delay lines and the overload controller
// settle, snapshots both ends, and cancels and joins both goroutines. The
// server's error, or the timeout, is the drill's.
func runDrill(srv *session.Server, sw *wire.Swarm, drain time.Duration, done func() bool) (drill, error) {
	ctx, cancel := context.WithTimeout(context.Background(), drillTimeout)
	defer cancel()
	start := time.Now()
	srvErr, swErr := make(chan error, 1), make(chan error, 1)
	go func() { srvErr <- srv.Run(ctx) }()
	go func() { swErr <- sw.Run(ctx) }()
	exited := false
	join := func() {
		cancel()
		if !exited {
			<-srvErr
		}
		<-swErr
	}
	poll := time.NewTicker(drillPoll)
	defer poll.Stop()
	for ended := false; !ended; {
		select {
		case err := <-srvErr:
			exited, ended = true, true
			if err == nil {
				err = ctx.Err()
			}
			if err != nil {
				join()
				return drill{}, err
			}
		case <-poll.C:
			ended = done()
		}
	}
	d := drill{elapsed: time.Since(start)}
	time.Sleep(drain)
	d.server, d.recvs = srv.Stats(), sw.Stats()
	join()
	d.events = d.server.Datagrams + d.server.ControlSent + d.server.Hellos + d.server.FeedbackItems
	for _, r := range d.recvs {
		d.events += r.Datagrams + r.Rejects + r.Closes + r.HellosSent + r.FeedbackSent
	}
	return d, nil
}

// colorTable adds up the receivers' per-colour counts into m, as
// <colour>_rcvd, _lost and _loss, and prints them as a table.
func colorTable(b *strings.Builder, m map[string]float64, recvs []wire.ReceiverStats) {
	totals := map[packet.Color]wire.ColorCount{}
	for _, r := range recvs {
		for c, n := range r.Colors {
			t := totals[c]
			t.Received += n.Received
			t.Lost += n.Lost
			totals[c] = t
		}
	}
	fmt.Fprintf(b, "%-8s %10s %10s %10s\n", "color", "received", "lost", "loss")
	for _, c := range wire.ReportColors(totals) {
		name := c.String()
		m[name+"_rcvd"], m[name+"_lost"], m[name+"_loss"] = float64(totals[c].Received), float64(totals[c].Lost), totals[c].LossRate()
		fmt.Fprintf(b, "%-8s %10.0f %10.0f %9.1f%%\n", name, m[name+"_rcvd"], m[name+"_lost"], 100*m[name+"_loss"])
	}
}

// injector arms plan on one direction of a link, seeded with seed and
// counted in reg under prefix; nil for an empty plan, so a fault-free link
// takes no injector at all.
func injector(plan fault.Plan, seed int64, reg *obs.Registry, prefix string) *fault.Injector {
	if len(plan.Events) == 0 {
		return nil
	}
	plan.Seed = seed
	inj := fault.NewInjector(plan)
	inj.Instrument(reg, prefix)
	return inj
}

// The emulator loopback is the wire package's own convergence regime: a
// 3 Mb/s bottleneck with 2 ms each way, a 3,000-byte buffer and a 10 ms
// gateway epoch; 10 ms frames of small packets, so γ quantization is fine;
// and a high α, so the equilibrium loss p* ≈ 9 % makes the red probes
// visible.
const (
	loopbackCapacity = 3 * units.Mbps
	loopbackDelay    = 2 * time.Millisecond
	loopbackQueue    = 3000
	loopbackEpoch    = 10 * time.Millisecond
)

var loopbackSession = session.Config{
	Frame:         fgs.FrameSpec{PacketSize: 100, TotalPackets: 80, GreenPackets: 8},
	FrameInterval: 10 * time.Millisecond,
	MKC: cc.MKCConfig{
		Alpha:       150 * units.Kbps,
		Beta:        0.5,
		InitialRate: 500 * units.Kbps,
		MinRate:     64 * units.Kbps,
		DedupEpochs: true,
	},
	BurstBytes: 16 * 100, // sixteen packets
}

// loopbackRun is what one emulator entry streams: how many frames, and
// under what faults. Fault times count from the emulator's creation.
type loopbackRun struct {
	frames           int
	forward, reverse fault.Plan
	// swapAt replaces the gateway (router 1 → 2, epochs from zero) that
	// long into the stream; 0 keeps it.
	swapAt time.Duration
	// staleTimeout arms the session's stale-feedback watchdog, probeIdle
	// the receiver's idle probe.
	staleTimeout, probeIdle time.Duration
}

var (
	// plainLoopback is wire-loopback: 200 frames, no fault.
	plainLoopback = loopbackRun{frames: 200}
	// chaosLoopback is chaos-wire: ≈ 3.5 s of stream with a burst-loss
	// episode, a hard link flap, reverse-path duplication and reordering,
	// and a gateway swap at 2 s, with the watchdog and the probe armed.
	chaosLoopback = loopbackRun{
		frames: 350,
		forward: fault.Plan{Events: []fault.Event{
			{Kind: fault.KindBurstLoss, From: 500 * time.Millisecond, To: time.Second,
				PGoodBad: 0.05, PBadGood: 0.3, LossGood: 0, LossBad: 0.5},
			{Kind: fault.KindLinkDown, From: 1200 * time.Millisecond, To: 1500 * time.Millisecond},
		}},
		reverse: fault.Plan{Events: []fault.Event{
			{Kind: fault.KindDuplicate, From: 1600 * time.Millisecond, To: 1900 * time.Millisecond, Prob: 0.3},
			{Kind: fault.KindReorder, From: 1600 * time.Millisecond, To: 1900 * time.Millisecond, Prob: 0.3,
				MaxDelay: 10 * time.Millisecond},
		}},
		swapAt:       2 * time.Second,
		staleTimeout: 150 * time.Millisecond,
		probeIdle:    100 * time.Millisecond,
	}
)

func wireLoopbackAt(g geometry) (Result, error) { return loopbackAt(g, plainLoopback) }
func chaosWireAt(g geometry) (Result, error)    { return loopbackAt(g, chaosLoopback) }

// loopbackAt streams run.frames FGS frames from a one-session
// session.Server on the emulator's A end — the end host pelsd runs —
// through a marking gateway and a priority-drop bottleneck to a
// one-receiver wire.Swarm on its B end — the receiver pelsget runs — that
// hellos it and echoes feedback. The seed drives the link and, at seed+1
// and seed+2, the forward and reverse injectors. The run ends when the
// server exits after its session's last frame, not when the receiver
// hears the Close, which a faulted forward path may drop.
func loopbackAt(g geometry, run loopbackRun) (Result, error) {
	reg := obs.NewRegistry()
	gateway := func(id int) *wire.Gateway {
		// Registering against the same registry replaces the gateway
		// gauges.
		return wire.NewGateway(wire.GatewayConfig{RouterID: id, Interval: loopbackEpoch, Capacity: loopbackCapacity, Obs: reg})
	}
	sw := wire.NewMarkerSwitch(gateway(1))
	fwd := injector(run.forward, g.seed+1, reg, "fault.forward.")
	rev := injector(run.reverse, g.seed+2, reg, "fault.reverse.")
	emu := wire.NewEmulator(wire.EmulatorConfig{
		AtoB: wire.LinkConfig{
			Bandwidth:  loopbackCapacity,
			Delay:      loopbackDelay,
			QueueBytes: loopbackQueue,
			Seed:       g.seed,
			Marker:     sw,
			Faults:     fwd,
		},
		BtoA: wire.LinkConfig{Delay: loopbackDelay, Faults: rev},
	})
	defer emu.Close()
	if run.swapAt > 0 {
		// The old gateway dies with its epoch history; the new one starts
		// at epoch zero under a new identity.
		swap := time.AfterFunc(run.swapAt, func() { sw.Set(gateway(2)) })
		defer swap.Stop()
	}
	cfg := loopbackSession
	cfg.MaxFrames, cfg.StaleTimeout = run.frames, run.staleTimeout
	srv, err := session.NewServer(session.ServerConfig{
		Conn:         emu.A(),
		Clock:        wire.SystemClock{},
		Session:      cfg,
		ExitWhenIdle: true,
		Obs:          reg,
	})
	if err != nil {
		return Result{}, err
	}
	recv, err := wire.NewSwarm(wire.SwarmConfig{
		Server:    emu.A().LocalAddr(),
		Receivers: 1,
		ProbeIdle: run.probeIdle,
		Listen:    func() (net.PacketConn, error) { return emu.B(), nil },
	}, time.Now())
	if err != nil {
		return Result{}, err
	}
	// The session leaves the table when it closes, so it is kept while it
	// streams: its Stats stay valid after it closes.
	var sess *session.Session
	d, err := runDrill(srv, recv, loopbackDelay+100*time.Millisecond, func() bool {
		if sess == nil && srv.Stats().Admitted > 0 {
			srv.Table().Range(func(_ session.Key, s *session.Session) bool {
				sess = s
				return false
			})
		}
		return false
	})
	if err == nil && sess == nil {
		err = errors.New("the session ended before it was seen in the table")
	}
	if err != nil {
		return Result{}, fmt.Errorf("wire loopback: %w", err)
	}
	st, r, link := sess.Stats(), d.recvs[0], emu.StatsAtoB()
	var fs, rs fault.Stats
	if fwd != nil {
		fs = fwd.Stats()
	}
	if rev != nil {
		rs = rev.Stats()
	}
	m := map[string]float64{
		"goodput_bps":     float64(r.Goodput()),
		"capacity_bps":    float64(loopbackCapacity),
		"rate_bps":        float64(st.Rate),
		"gamma":           st.Gamma,
		"frames":          float64(r.Frames),
		"datagrams_sent":  float64(st.Datagrams),
		"datagrams_rcvd":  float64(r.Datagrams),
		"overflow_drops":  float64(link.OverflowDrops),
		"stale_decays":    float64(st.StaleDecays),
		"recoveries":      float64(st.Recoveries),
		"router_changes":  float64(st.RouterChanges),
		"probes":          float64(r.Probes),
		"fault_drops":     float64(link.FaultDrops),
		"fwd_offered":     float64(fs.Offered),
		"fwd_fault_drops": float64(fs.Drops),
		"rev_duplicated":  float64(rs.Duplicated),
		"rev_reordered":   float64(rs.Reordered),
	}

	var b strings.Builder
	fmt.Fprintf(&b, "bottleneck %v, epoch %v, %d frames of %d B packets in %v\n",
		loopbackCapacity, loopbackEpoch, run.frames, cfg.Frame.PacketSize, d.elapsed.Round(time.Millisecond))
	if run.swapAt > 0 {
		fmt.Fprintf(&b, "gateway swap → router 2 at %v; faults: fwd %.0f drops of %.0f offered (%.0f link-level), rev %.0f dup / %.0f reordered\n",
			run.swapAt, m["fwd_fault_drops"], m["fwd_offered"], m["fault_drops"], m["rev_duplicated"], m["rev_reordered"])
	}
	fmt.Fprintf(&b, "sender: rate %v  gamma %.3f  last loss %+.3f  degrade %.3f  feedback accepted %d\n",
		st.Rate, m["gamma"], st.LastLoss, st.Degrade, st.FeedbackAccepted)
	fmt.Fprintf(&b, "resilience: %.0f stale decays, %.0f recoveries, %.0f router changes, %.0f probes\n",
		m["stale_decays"], m["recoveries"], m["router_changes"], m["probes"])
	fmt.Fprintf(&b, "goodput %v (%.1f%% of capacity), %.0f datagrams, %d epochs observed\n",
		r.Goodput(), 100*m["goodput_bps"]/m["capacity_bps"], m["datagrams_rcvd"], r.Epochs)
	colorTable(&b, m, d.recvs)
	return Result{Output: b.String(), Events: d.events, Metrics: m, Obs: reg}, nil
}
