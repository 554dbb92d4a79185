// Command pelsd streams PELS-labeled FGS video over real UDP to every
// receiver that says hello.
//
// pelsd is a multi-session server: each hello datagram (keyed by peer
// address + flow ID) admits an independent session with its own MKC
// rate controller, γ red-fraction controller, and per-color sequence
// spaces. All sessions share one UDP socket, one demux loop, and one
// in-process software bottleneck (wire.ShapedConn) whose marking
// gateway stamps eq. 11 loss labels and enforces the PELS drop
// priorities — so a single host observes the same multi-flow congestion
// dynamics the simulator models, without root privileges or qdisc
// setup. Pacing runs on a shared timing wheel driven by a small fixed
// goroutine pool, so the goroutine count does not grow with the number
// of receivers (see internal/session).
//
// Usage:
//
//	pelsd [-addr 127.0.0.1:9000] [-capacity 3mbps] [-frames 300]
//	      [-duration 0] [-epoch 10ms] [-queue 3000] [-link-delay 0]
//	      [-packet 100] [-frame-packets 80] [-green 8]
//	      [-frame-interval 10ms] [-alpha 150kbps] [-beta 0.5]
//	      [-initial-rate 500kbps] [-flow 0] [-shards 8]
//	      [-max-sessions 8192] [-idle-timeout 10s] [-drain 5s]
//	      [-workers 4] [-debug 127.0.0.1:9100]
//	      [-chaos] [-chaos-seed 1] [-stale-timeout 0]
//	      [-stuck-timeout 0] [-reject-retry-after 500ms]
//	      [-overload-capacity ""] [-serve]
//
// Refused hellos are answered with a Reject datagram carrying the reason
// and a -reject-retry-after hint; finished, reaped, and drained sessions
// get a Close with their reason, so well-behaved receivers back off or
// reconnect instead of guessing. With -overload-capacity, the server
// sheds enhancement layers server-wide (base layer always flows) when
// table occupancy, pump backlog, pacing lateness, or aggregate demand
// against that ceiling crosses the high watermark, and restores them as
// load recedes. With -stuck-timeout, sessions making no progress in
// either direction are closed and counted separately from idle reaps.
//
// With -frames N, each session streams N frames and closes; pelsd exits
// once at least one session was admitted and all of them have finished.
// With -frames 0, sessions stream until the receiver goes silent for
// -idle-timeout and pelsd serves until -duration or a signal.
//
// On SIGINT or SIGTERM pelsd drains instead of dropping mid-frame: new
// hellos are refused, every live session finishes the frame in flight,
// and the bottleneck flushes, bounded by the -drain grace period.
//
// With -debug ADDR, pelsd serves live observability over HTTP while
// streaming: /debug/vars is an expvar-style JSON snapshot of the
// gateway and aggregate session metrics, /debug/shards breaks the
// session table down per shard (sessions, summed rate, mean γ),
// /debug/series dumps recorded series, and /debug/pprof/ exposes the
// standard profiles.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cc"
	"repro/internal/fault"
	"repro/internal/fgs"
	"repro/internal/obs"
	"repro/internal/session"
	"repro/internal/units"
	"repro/internal/wire"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "pelsd:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", "127.0.0.1:9000", "UDP address to listen on")
	capacity := flag.String("capacity", "3mbps", "software bottleneck bandwidth")
	frames := flag.Int("frames", 300, "frames each session streams (0 = until reaped or drained)")
	duration := flag.Duration("duration", 0, "overall wall-clock limit; pelsd drains when it expires (0 = none)")
	epoch := flag.Duration("epoch", 10*time.Millisecond, "gateway feedback epoch")
	queue := flag.Int("queue", 3000, "bottleneck queue bytes")
	linkDelay := flag.Duration("link-delay", 0, "bottleneck one-way delay")
	pktSize := flag.Int("packet", 100, "on-wire datagram size in bytes")
	framePkts := flag.Int("frame-packets", 80, "packets in a full-quality frame")
	greenPkts := flag.Int("green", 8, "base-layer (green) packets per frame")
	frameInterval := flag.Duration("frame-interval", 10*time.Millisecond, "video frame period")
	alpha := flag.String("alpha", "150kbps", "MKC additive step")
	beta := flag.Float64("beta", 0.5, "MKC multiplicative gain")
	initialRate := flag.String("initial-rate", "500kbps", "MKC starting rate")
	flow := flag.Uint("flow", 0, "admit only this flow ID (0 = any)")
	shards := flag.Int("shards", 8, "session-table shard count")
	maxSessions := flag.Int("max-sessions", 8192, "concurrent session limit; extra hellos are refused")
	idleTimeout := flag.Duration("idle-timeout", 10*time.Second, "reap sessions silent for this long")
	drainGrace := flag.Duration("drain", 5*time.Second, "graceful drain budget on signal or -duration expiry")
	workers := flag.Int("workers", 4, "session pump goroutine pool size")
	debugAddr := flag.String("debug", "", "HTTP address serving /debug/vars, /debug/shards, /debug/series and /debug/pprof/ (empty = off)")
	chaos := flag.Bool("chaos", false, "inject the canned fault plan into the bottleneck (burst loss, corruption, link flaps) and a hello storm into the inbound path")
	chaosSeed := flag.Int64("chaos-seed", 1, "seed for the -chaos fault plan")
	stuckTimeout := flag.Duration("stuck-timeout", 0,
		"close sessions with neither feedback nor pump progress for this long (0 = off)")
	rejectRetryAfter := flag.Duration("reject-retry-after", 500*time.Millisecond,
		"retry hint carried in Reject datagrams (negative = no hint)")
	overloadCap := flag.String("overload-capacity", "",
		"arm graceful layer shedding against this aggregate-rate ceiling (empty = off)")
	serve := flag.Bool("serve", false,
		"keep serving after the table empties even with -frames set (for crowd drills with gaps between waves)")
	staleTimeout := flag.Duration("stale-timeout", 0,
		"decay a session's rate when its feedback goes quiet for this long (0 = off)")
	flag.Parse()

	cap, err := units.ParseBitRate(*capacity)
	if err != nil {
		return err
	}
	alphaRate, err := units.ParseBitRate(*alpha)
	if err != nil {
		return fmt.Errorf("-alpha: %w", err)
	}
	initRate, err := units.ParseBitRate(*initialRate)
	if err != nil {
		return fmt.Errorf("-initial-rate: %w", err)
	}

	conn, err := net.ListenPacket("udp", *addr)
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	gw := wire.NewGateway(wire.GatewayConfig{
		RouterID: 1,
		Interval: *epoch,
		Capacity: cap,
		Obs:      reg,
	})
	linkCfg := wire.LinkConfig{
		Bandwidth:  cap,
		Delay:      *linkDelay,
		QueueBytes: *queue,
		Marker:     gw,
	}
	inConn := conn
	if *chaos {
		inj := fault.NewInjector(fault.DefaultChaosPlan(*chaosSeed))
		inj.Instrument(reg, "fault.")
		linkCfg.Faults = inj
		// The outbound plan degrades the data path; the inbound storm
		// duplicates and drops hellos before the demux sees them, so
		// admission (first-hello-wins, Reject retries) is under fault too.
		ctl := fault.NewInjector(fault.HelloStormPlan(*chaosSeed + 1))
		ctl.Instrument(reg, "fault.ctl_")
		inConn = wire.NewFaultConn(conn, ctl)
		fmt.Fprintf(os.Stderr, "pelsd: chaos fault plan armed (seed %d), hello storm inbound\n", *chaosSeed)
	}
	shaped := wire.NewShapedConn(conn, linkCfg)
	defer shaped.Close() // drains the bottleneck, then closes conn

	sessCfg := session.Config{
		Frame: fgs.FrameSpec{
			PacketSize:   *pktSize,
			TotalPackets: *framePkts,
			GreenPackets: *greenPkts,
		},
		FrameInterval: *frameInterval,
		MKC: cc.MKCConfig{
			Alpha:       alphaRate,
			Beta:        *beta,
			InitialRate: initRate,
			MinRate:     64 * units.Kbps,
			DedupEpochs: true,
		},
		MaxFrames:    *frames,
		StaleTimeout: *staleTimeout,
	}
	srvCfg := session.ServerConfig{
		Conn:             inConn,
		Out:              shaped,
		Clock:            wire.SystemClock{},
		Session:          sessCfg,
		Shards:           *shards,
		MaxSessions:      *maxSessions,
		IdleTimeout:      *idleTimeout,
		StuckTimeout:     *stuckTimeout,
		RejectRetryAfter: *rejectRetryAfter,
		Workers:          *workers,
		ExitWhenIdle:     *frames > 0 && !*serve,
		Obs:              reg,
	}
	if *overloadCap != "" {
		oc, err := units.ParseBitRate(*overloadCap)
		if err != nil {
			return fmt.Errorf("-overload-capacity: %w", err)
		}
		srvCfg.Overload = session.OverloadConfig{Capacity: oc}
		fmt.Fprintf(os.Stderr, "pelsd: overload shedding armed above %v aggregate demand\n", oc)
	}
	if *flow != 0 {
		want := uint32(*flow)
		srvCfg.Tune = func(k session.Key, c *session.Config) {
			if k.Flow != want {
				// Reject by invalidating the config: foreign flows are
				// refused at admission.
				c.Frame.PacketSize = -1
			}
		}
	}
	srv, err := session.NewServer(srvCfg)
	if err != nil {
		return err
	}

	if *debugAddr != "" {
		ln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			return fmt.Errorf("-debug: %w", err)
		}
		mux := obs.DebugMux(reg)
		obs.HandleGroups(mux, "/debug/shards", func() map[string]*obs.Registry {
			regs := srv.Table().Registries()
			out := make(map[string]*obs.Registry, len(regs))
			for i, r := range regs {
				out[fmt.Sprintf("shard%02d", i)] = r
			}
			return out
		})
		dbg := &http.Server{Handler: mux}
		go func() {
			// Serve always returns non-nil; only a deliberate Shutdown is
			// routine. Anything else means the observability endpoint died
			// mid-run — say so instead of swallowing it.
			if err := dbg.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(os.Stderr, "pelsd: debug server: %v\n", err)
			}
		}()
		defer func() {
			sctx, cancel := context.WithTimeout(context.Background(), time.Second)
			defer cancel()
			_ = dbg.Shutdown(sctx)
		}()
		fmt.Fprintf(os.Stderr, "pelsd: debug HTTP on http://%s/debug/vars\n", ln.Addr())
	}

	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	runCtx, runCancel := context.WithCancel(context.Background())
	defer runCancel()
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Run(runCtx) }()

	var timeoutC <-chan time.Time
	if *duration > 0 {
		tm := time.NewTimer(*duration)
		defer tm.Stop()
		timeoutC = tm.C
	}

	fmt.Fprintf(os.Stderr, "pelsd: listening on %s, bottleneck %v, up to %d sessions across %d shards\n",
		conn.LocalAddr(), cap, *maxSessions, *shards)

	var runErr error
	select {
	case runErr = <-errCh:
		// Idle exit (all sessions done) or a socket failure.
	case <-sigCtx.Done():
		drain(srv, *drainGrace, "signal")
		runCancel()
		runErr = <-errCh
	case <-timeoutC:
		drain(srv, *drainGrace, "duration limit")
		runCancel()
		runErr = <-errCh
	}

	st := srv.Stats()
	fmt.Printf("sessions=%d completed=%d reaped=%d reaped_stuck=%d rejected=%d rejected_full=%d rejected_drain=%d rejected_config=%d admit_races=%d sheds=%d restores=%d datagrams=%d bytes=%d feedback=%d\n",
		st.Admitted, st.Completed, st.Reaped, st.ReapedStuck,
		st.Rejected, st.RejectedFull, st.RejectedDrain, st.RejectedConfig,
		st.AdmitRaces, st.Sheds, st.Restores,
		st.Datagrams, st.Bytes, st.FeedbackItems)
	if runErr != nil && !errors.Is(runErr, context.Canceled) && !errors.Is(runErr, context.DeadlineExceeded) {
		return runErr
	}
	return nil
}

// drain refuses new hellos and lets live sessions finish their frame in
// flight, bounded by grace.
func drain(srv *session.Server, grace time.Duration, why string) {
	n := srv.Table().Len()
	fmt.Fprintf(os.Stderr, "pelsd: %s: draining %d session(s) (grace %v)\n", why, n, grace)
	dctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		fmt.Fprintf(os.Stderr, "pelsd: %v\n", err)
	}
}
