package experiments

import (
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

// The overload drill: a live server with overloadSlots session slots
// behind a 4 Mb/s software bottleneck, a hello storm on its inbound path,
// and a flash crowd of overloadReceivers, twice the slots, streaming
// overloadFrames 20 ms frames each (≈ 2 s), so slots recycle and the
// rejected half eventually streams. The base-layer floor clears the
// bottleneck even at full occupancy: 2 green packets of 200 B per frame
// is 160 kb/s a session, 1.3 Mb/s for 8 against 4 Mb/s, so zero green
// loss is an invariant, not luck. The overload controller's budget is set
// loose (8 Mb/s), so table occupancy, not demand, drives the shed, and it
// is fast (200 ms dwell, 25 ms cadence), so the restore registers inside
// the run.
const (
	overloadSlots     = 8
	overloadReceivers = 2 * overloadSlots
	overloadFrames    = 100
	overloadCapacity  = 4 * units.Mbps
)

// overloadWireAt runs the drill: server under hello storm, flash crowd of
// twice its slots, until every receiver has streamed to Close(complete);
// then a second of quiet lets the controller unwind. It exercises the
// whole control plane at once — Reject with retry-after, jittered backoff
// and re-admission as slots free, layer shedding past the occupancy
// watermark and restore as the crowd drains. The seed drives the storm's
// fault plan and, at seed+1, the swarm's jitter.
func overloadWireAt(g geometry) (Result, error) {
	reg := obs.NewRegistry()
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return Result{}, err
	}
	inj := fault.NewInjector(fault.HelloStormPlan(g.seed))
	inj.Instrument(reg, "fault.")
	shaped := wire.NewShapedConn(conn, wire.LinkConfig{
		Bandwidth:  overloadCapacity,
		QueueBytes: 24000,
		Marker: wire.NewGateway(wire.GatewayConfig{
			RouterID: 1,
			Interval: 10 * time.Millisecond,
			Capacity: overloadCapacity,
			Obs:      reg,
		}),
	})
	defer shaped.Close()
	srv, err := session.NewServer(session.ServerConfig{
		// The storm degrades only what arrives: hellos are duplicated
		// and dropped before the demux sees them, data is untouched.
		Conn:  wire.NewFaultConn(conn, inj),
		Out:   shaped,
		Clock: wire.SystemClock{},
		Session: session.Config{
			Frame:         fgs.FrameSpec{PacketSize: 200, TotalPackets: 40, GreenPackets: 2},
			FrameInterval: 20 * time.Millisecond,
			MKC: cc.MKCConfig{
				Alpha:       50 * units.Kbps,
				Beta:        0.5,
				InitialRate: 300 * units.Kbps,
				MinRate:     64 * units.Kbps,
				DedupEpochs: true,
			},
			MaxFrames: overloadFrames,
		},
		MaxSessions:      overloadSlots,
		IdleTimeout:      5 * time.Second,
		RejectRetryAfter: 300 * time.Millisecond,
		Overload: session.OverloadConfig{
			Capacity: 8 * units.Mbps,
			Hold:     200 * time.Millisecond,
			Every:    25 * time.Millisecond,
		},
		Obs: reg,
	})
	if err != nil {
		return Result{}, err
	}
	swarm, err := wire.NewSwarm(wire.SwarmConfig{
		Server:     conn.LocalAddr(),
		Receivers:  overloadReceivers,
		Seed:       g.seed + 1,
		Ramp:       300 * time.Millisecond,
		HelloRetry: 150 * time.Millisecond,
		Reconnect:  true,
	}, time.Now())
	if err != nil {
		return Result{}, err
	}
	completed := 0
	d, err := runDrill(srv, swarm, reg, time.Second, func() bool {
		completed = 0
		for _, st := range swarm.Stats() {
			if st.LastClose == wire.ReasonComplete {
				completed++
			}
		}
		return completed == overloadReceivers
	})
	if err != nil {
		return Result{}, fmt.Errorf("overload wire: %d/%d receivers completed: %w", completed, overloadReceivers, err)
	}

	s, fs := d.server, inj.Stats()
	m := map[string]float64{
		"receivers":       overloadReceivers,
		"completed":       float64(completed),
		"admitted":        float64(s.Admitted),
		"rejected":        float64(s.Rejected),
		"rejected_full":   float64(s.RejectedFull),
		"rejected_drain":  float64(s.RejectedDrain),
		"rejected_config": float64(s.RejectedConfig),
		"admit_races":     float64(s.AdmitRaces),
		"sheds":           float64(s.Sheds),
		"restores":        float64(s.Restores),
		"shed_level_end":  float64(s.ShedLevel),
		"reaped_stuck":    float64(s.ReapedStuck),
		"fault_dup":       float64(fs.Duplicated),
		"fault_drops":     float64(fs.Drops),
	}
	for _, r := range d.recvs {
		m["swarm_rejects"] += float64(r.Rejects)
		m["swarm_closes"] += float64(r.Closes)
		m["reconnects"] += float64(r.Reconnects)
		m["hellos"] += float64(r.HellosSent)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%d receivers vs %d slots, bottleneck %v, %d frames/session, finished in %v\n",
		overloadReceivers, overloadSlots, overloadCapacity, overloadFrames, d.elapsed.Round(time.Millisecond))
	fmt.Fprintf(&b, "admission: admitted %.0f  rejected %.0f (full %.0f, drain %.0f, config %.0f)  races %.0f\n",
		m["admitted"], m["rejected"], m["rejected_full"], m["rejected_drain"], m["rejected_config"], m["admit_races"])
	fmt.Fprintf(&b, "overload: %.0f shed / %.0f restore transitions, final level %.0f, load %.2f\n",
		m["sheds"], m["restores"], m["shed_level_end"], s.Load)
	fmt.Fprintf(&b, "swarm: %.0f completed, %.0f rejects seen, %.0f closes, %.0f reconnects, %.0f hellos (storm dup %.0f, dropped %.0f)\n",
		m["completed"], m["swarm_rejects"], m["swarm_closes"], m["reconnects"], m["hellos"], m["fault_dup"], m["fault_drops"])
	colorTable(&b, m, d.recvs)
	return Result{Output: b.String(), Events: d.events, Metrics: m, Obs: reg}, nil
}
