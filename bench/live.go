package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"repro/internal/cc"
	"repro/internal/fgs"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/session"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/wire"
)

// Live workloads host a session.Server and its receivers in this process
// and measure them from outside, through seams the program already has:
// ServerConfig.{Conn,Out,Clock,Tune,Obs}, session.Config.NewScaler,
// LinkConfig.Marker, SwarmConfig.Listen, and the Stats snapshots. The
// server runs with pelsd's shipped defaults (4 workers, 8 shards, 1 ms
// wheel tick, 64-item / 2 ms feedback batches, Obs set).

// liveKind selects the traffic shape of a live workload.
type liveKind int

const (
	kindEgress liveKind = iota // open loop at a fixed rate into the counting sink
	kindLoop                   // closed MKC/gamma loop through gateway and link
	kindChurn                  // open loop of short sessions arriving and completing
)

// linkSpec is the software bottleneck of the closed-loop workload.
type linkSpec struct {
	capacity   units.BitRate
	queueBytes int
	epoch      time.Duration
}

// liveSpec describes one live workload.
type liveSpec struct {
	name string
	kind liveKind

	// Egress and loop: concurrent sessions. Churn: arrivals per second.
	sessions int
	// Egress: datagrams per second each session is paced at.
	dgps int

	frame         fgs.FrameSpec
	frameInterval time.Duration
	mkc           cc.MKCConfig
	maxFrames     int
	burstPackets  int // token bucket size in datagrams; 0 keeps the default 8
	link          *linkSpec

	// settle is how long the admitted sessions run before the window
	// opens (for churn: the length of the warm-up wave).
	settle time.Duration
}

const pktSize = 100

// admitSpread is how long the egress workloads take to admit their
// sessions: 20 of egress-wide's 10 ms wake periods.
const admitSpread = 200 * time.Millisecond

var liveSpecs = []liveSpec{
	{
		name: "egress-wide", kind: kindEgress, sessions: 4096, dgps: 100,
		// 80 kb/s x 100 ms = 1000 B = 1 green + 9 enhancement packets a
		// frame; the 8-datagram bucket drains in the first wake, after
		// which every datagram waits 10 ms for its tokens: one per wake.
		frame: fgs.FrameSpec{PacketSize: pktSize, TotalPackets: 80, GreenPackets: 1}, frameInterval: 100 * time.Millisecond,
		settle: 500 * time.Millisecond,
	},
	{
		name: "egress-bulk", kind: kindEgress, sessions: 256, dgps: 4000,
		// 3.2 Mb/s x 20 ms = 8000 B = 80 packets a frame, four datagrams
		// per 1 ms tick. The bucket holds 80 ms of tokens, as the default
		// 8 datagrams do for egress-wide: this VM freezes the process for
		// 10-50 ms a few times a run, and a bucket shorter than the freeze
		// turns it into lost rate and a moved schedule instead of a few
		// late datagrams.
		frame: fgs.FrameSpec{PacketSize: pktSize, TotalPackets: 80, GreenPackets: 1}, frameInterval: 20 * time.Millisecond,
		burstPackets: 320,
		settle:       500 * time.Millisecond,
	},
	{
		name: "loop-mem", kind: kindLoop, sessions: 500,
		// r* = C/N + alpha/beta = 60 + 4 kb/s = 80 datagrams/s a viewer,
		// and the aggregate overshoots the link by N*alpha/beta, which is
		// what keeps red packets dropping and gamma working.
		frame: fgs.FrameSpec{PacketSize: pktSize, TotalPackets: 80, GreenPackets: 1}, frameInterval: 60 * time.Millisecond,
		mkc:    cc.MKCConfig{Alpha: 2 * units.Kbps, Beta: 0.5, InitialRate: 64 * units.Kbps, MinRate: 16 * units.Kbps, DedupEpochs: true},
		link:   &linkSpec{capacity: 30 * units.Mbps, queueBytes: 60_000, epoch: 50 * time.Millisecond},
		settle: 3 * time.Second,
	},
	{
		name: "churn-mem", kind: kindChurn, sessions: 800,
		// Five 20 ms frames at the paper's 128 kb/s start: 15 datagrams,
		// about 100 ms from hello to Close(complete).
		frame: fgs.FrameSpec{PacketSize: pktSize, TotalPackets: 80, GreenPackets: 1}, frameInterval: 20 * time.Millisecond,
		mkc:       cc.MKCConfig{Alpha: 20 * units.Kbps, Beta: 0.5, InitialRate: 128 * units.Kbps, MinRate: 16 * units.Kbps, DedupEpochs: true},
		maxFrames: 5,
		settle:    time.Second,
	},
}

func (s liveSpec) sessionConfig() session.Config {
	mkc := s.mkc
	if s.kind == kindEgress {
		// No feedback ever arrives, so the rate stays where it starts.
		r := units.BitRate(s.dgps * pktSize * 8)
		mkc = cc.MKCConfig{Alpha: units.Kbps, Beta: 0.5, InitialRate: r, MinRate: r / 2, DedupEpochs: true}
	}
	return session.Config{
		Frame: s.frame, FrameInterval: s.frameInterval, MKC: mkc,
		MaxFrames: s.maxFrames, BurstBytes: s.burstPackets * pktSize,
	}
}

// swarmSockets is how many sockets (and so reader goroutines) the load
// generator may use: never more than the cores there are.
func swarmSockets() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// firstFlow derives the first flow ID from the seed, so which flows hash
// to which shard — and which the sink samples — varies with it.
func firstFlow(seed int64) uint32 { return 1 + uint32(uint64(seed)%9973)*64 + uint32(uint64(seed)%61) }

// rig is one running server with its transport.
type rig struct {
	transport string
	mem       *memNetwork
	conn      net.PacketConn // the server socket
	shaped    *wire.ShapedConn
	srv       *session.Server
	cancel    context.CancelFunc
	done      chan error
}

// listen opens one client socket on the rig's transport.
func (r *rig) listen() (net.PacketConn, error) {
	if r.transport == "udp" {
		return net.ListenPacket("udp", "127.0.0.1:0")
	}
	return r.mem.listen(), nil
}

// newRig builds and starts a server for spec. out, if non-nil, replaces the
// server socket as the data path (the egress sink); tr arms the wrappers.
func newRig(transport string, spec liveSpec, out wire.PacketWriter, tr *tracer) (*rig, error) {
	// 8192 slots hold a whole admission wave or several feedback epochs;
	// an overflow is a failed run, never silent.
	r := &rig{transport: transport, mem: newMemNetwork(8192, 2*pktSize), done: make(chan error, 1)}
	conn, err := r.listen()
	if err != nil {
		return nil, fmt.Errorf("server socket: %w", err)
	}
	r.conn = conn
	reg := obs.NewRegistry()
	if spec.link != nil {
		var marker wire.Marker = wire.NewGateway(wire.GatewayConfig{
			RouterID: 1, Interval: spec.link.epoch, Capacity: spec.link.capacity, Obs: reg,
		})
		if tr != nil {
			marker = tracedMarker{marker, tr}
		}
		r.shaped = wire.NewShapedConn(conn, wire.LinkConfig{
			Bandwidth: spec.link.capacity, QueueBytes: spec.link.queueBytes, Marker: marker,
		})
		out = r.shaped
	}
	cfg := session.ServerConfig{
		Conn:    conn,
		Out:     out,
		Clock:   wire.SystemClock{},
		Session: spec.sessionConfig(),
		Obs:     reg,
	}
	if spec.kind == kindEgress {
		cfg.IdleTimeout = -1 // the sink never says hello twice
	}
	if tr != nil {
		if out == nil {
			out = conn
		}
		cfg.Out = tracedOut{out, tr}
		cfg.Clock = tracedClock{cfg.Clock, tr}
		cfg.Session.NewScaler = func() fgs.Scaler { return tracedScaler{fgs.ConstantScaler{}, tr} }
		cfg.Tune = tr.tune
	}
	srv, err := session.NewServer(cfg)
	if err != nil {
		conn.Close()
		return nil, err
	}
	r.srv = srv
	ctx, cancel := context.WithCancel(context.Background())
	r.cancel = cancel
	go func() { r.done <- srv.Run(ctx) }()
	return r, nil
}

// stop ends the server, drains the link and closes the server socket.
func (r *rig) stop() error {
	r.cancel()
	err := <-r.done
	if r.shaped != nil {
		if cerr := r.shaped.Close(); err == nil {
			err = cerr
		}
	} else if cerr := r.conn.Close(); err == nil {
		err = cerr
	}
	if errors.Is(err, context.Canceled) {
		err = nil
	}
	return err
}

// waitFor polls cond every millisecond until it holds or timeout passes.
func waitFor(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// liveRun is everything one measured window yields, before it is turned
// into metrics.
type liveRun struct {
	spec   liveSpec
	setupS float64
	usage

	// slices is what the process did in each slice of the window. Rates and
	// costs are reported as the median slice's, so a burst of interference
	// from the host costs the slices it hits and not the run.
	slices []sliceSample

	ops       uint64  // the workload's unit of work done in the window
	datagrams uint64  // datagrams the server put on Out in the window
	delivered float64 // delivered_frac
	utility   float64
	latP50    float64 // ms
	latP90    float64
	startP50  float64 // ms, hello -> first datagram
	startP99  float64

	before, after session.ServerStats
	tr0, tr1      tracerSnap // traced runs only
	sessStats     []session.Stats
	link          wire.LinkStats
	goodputAll    float64 // whole window, as the swarm's receivers add it up
	greenLoss     float64 // whole window, likewise
	tapHellos     uint64
	memDrops      uint64
	peakRSS       float64

	attempted, failed int64
	notes             []string
}

func (l *liveRun) fail(format string, args ...any) {
	l.notes = append(l.notes, fmt.Sprintf(format, args...))
}

// snapTracer reads tr's counters, or nothing for an untraced run.
func snapTracer(tr *tracer) tracerSnap {
	if tr == nil {
		return tracerSnap{}
	}
	return tr.snap()
}

// egressLoad is one admitted open-loop population.
type egressLoad struct {
	rig   *rig
	sink  *sink
	win   *window
	peers []net.PacketConn
	wg    sync.WaitGroup
}

// startEgress builds a server with the sink as its data path and admits
// every session, returning once all of them stream.
func startEgress(p params, spec liveSpec, tr *tracer) (*egressLoad, error) {
	first := firstFlow(p.seed)
	e := &egressLoad{win: newWindow()}
	// One flow in 64 at 4096 sessions, never fewer than 16 flows.
	every := spec.sessions / 16
	if every > 64 {
		every = 64
	}
	e.sink = newSink(first, spec.sessions, every, int(float64(spec.dgps)*p.seconds*1.25)+64, spec.frame, e.win)
	var out wire.PacketWriter = e.sink
	if p.transport == "udp" {
		out = nil // data crosses the loopback and the peers' readers feed the sink
	}
	r, err := newRig(p.transport, spec, out, tr)
	if err != nil {
		return nil, err
	}
	e.rig = r
	for i := 0; i < swarmSockets(); i++ {
		peer, err := r.listen()
		if err != nil {
			e.stop()
			return nil, fmt.Errorf("peer socket: %w", err)
		}
		e.peers = append(e.peers, peer)
		if p.transport == "udp" {
			e.wg.Add(1)
			go func() {
				defer e.wg.Done()
				buf := make([]byte, wire.MaxDatagram+1)
				for {
					n, _, err := peer.ReadFrom(buf)
					if err != nil {
						return
					}
					e.sink.observe(buf[:n])
				}
			}()
		}
	}
	// Hellos go out evenly spaced over admitSpread, a whole number of wake
	// periods: a session keeps the phase it was admitted at, so this
	// spreads the wheel's load evenly over its ticks, as independent
	// viewers would, and the same way in every run, instead of leaving it
	// to how an admission burst happened to be scheduled.
	var buf []byte
	server := r.conn.LocalAddr()
	hello := func(i int) error {
		now := time.Now().UnixNano()
		b, err := wire.AppendDatagram(buf[:0], wire.Header{Type: wire.TypeHello, Color: packet.ACK, Flow: first + uint32(i), Timestamp: now}, nil)
		if err != nil {
			return err
		}
		buf = b
		e.sink.slots[i].helloAt.CompareAndSwap(0, now)
		_, err = e.peers[i%len(e.peers)].WriteTo(b, server)
		return err
	}
	start := time.Now()
	for i := 0; i < spec.sessions; i++ {
		due := start.Add(admitSpread * time.Duration(i) / time.Duration(spec.sessions))
		for time.Now().Before(due) {
			runtime.Gosched()
		}
		if err := hello(i); err != nil {
			e.stop()
			return nil, fmt.Errorf("hello: %w", err)
		}
	}
	// A hello lost on the way (UDP only) is sent again.
	for attempt := 0; !waitFor(500*time.Millisecond, func() bool { return e.sink.streaming() == spec.sessions }); attempt++ {
		if attempt == 20 {
			e.stop()
			return nil, fmt.Errorf("%s: only %d of %d sessions streaming", spec.name, e.sink.streaming(), spec.sessions)
		}
		for i := 0; i < spec.sessions; i++ {
			if e.sink.slots[i].count.Load() == 0 {
				if err := hello(i); err != nil {
					e.stop()
					return nil, fmt.Errorf("hello: %w", err)
				}
			}
		}
	}
	return e, nil
}

func (e *egressLoad) stop() error {
	err := e.rig.stop()
	for _, peer := range e.peers {
		peer.Close()
	}
	e.wg.Wait()
	return err
}

// swarmLoad is one receiver swarm against one server.
type swarmLoad struct {
	rig    *rig
	tap    *tap
	win    *window
	swarm  *wire.Swarm
	cancel context.CancelFunc
	done   chan error
}

// startSwarm builds n tapped receivers arriving over ramp against r.
func startSwarm(p params, r *rig, spec liveSpec, first uint32, n int, ramp time.Duration) (*swarmLoad, error) {
	s := &swarmLoad{rig: r, win: newWindow(), done: make(chan error, 1)}
	sockets := swarmSockets()
	s.tap = newTap(first, n, sockets, spec.frame, s.win)
	idx := 0
	swarm, err := wire.NewSwarm(wire.SwarmConfig{
		Server:    r.conn.LocalAddr(),
		Receivers: n,
		Sockets:   sockets,
		FirstFlow: first,
		Seed:      p.seed,
		Ramp:      ramp,
		Listen: func() (net.PacketConn, error) {
			conn, err := r.listen()
			if err != nil {
				return nil, err
			}
			idx++
			return s.tap.wrap(conn, idx-1), nil
		},
	}, time.Now())
	if err != nil {
		return nil, err
	}
	s.swarm = swarm
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	go func() { s.done <- swarm.Run(ctx) }()
	return s, nil
}

func (s *swarmLoad) stop() error {
	s.cancel()
	return <-s.done
}

// medianSetup runs setup n times, tearing all but the last down, and
// returns the last one's product with the median duration: set-up cost is
// a gated metric, and one sample of it would be mostly scheduler noise.
func medianSetup[T any](n int, setup func() (T, error), teardown func(T) error) (T, float64, error) {
	var secs []float64
	for i := 1; ; i++ {
		start := time.Now()
		v, err := setup()
		if err != nil {
			return v, 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
		if i == n {
			return v, stats.Percentile(secs, 50), nil
		}
		if err := teardown(v); err != nil {
			return v, 0, err
		}
	}
}

// measureLive runs one live workload for p.seconds and returns the raw
// window. tr non-nil makes it the traced run.
func measureLive(p params, spec liveSpec, tr *tracer) (*liveRun, error) {
	switch spec.kind {
	case kindEgress:
		return measureEgress(p, spec, tr)
	case kindLoop:
		return measureLoop(p, spec, tr)
	default:
		return measureChurn(p, spec, tr)
	}
}

// seconds converts a flag's seconds to a Duration.
func seconds(d float64) time.Duration { return time.Duration(d * float64(time.Second)) }

// sliceSample is what the process did in one slice of the window.
type sliceSample struct {
	wall, cpu time.Duration
	ops       uint64
}

// sleepWindow waits out a window of the given length, reading the clocks
// and the workload's cumulative op counter at every slice boundary.
func sleepWindow(length time.Duration, ops func() uint64) []sliceSample {
	out := make([]sliceSample, 0, windowSlices)
	start := time.Now()
	prevWall, prevCPU, prevOps := start, processCPU(), ops()
	for i := 1; i <= windowSlices; i++ {
		time.Sleep(time.Until(start.Add(length * time.Duration(i) / windowSlices)))
		wall, cpu, n := time.Now(), processCPU(), ops()
		out = append(out, sliceSample{wall: wall.Sub(prevWall), cpu: cpu - prevCPU, ops: n - prevOps})
		prevWall, prevCPU, prevOps = wall, cpu, n
	}
	return out
}

// slicePercentile is the pct-th percentile over the window's slices of
// per(i); slices for which per reports false (nothing happened in them) are
// left out. Metrics are the median slice's. The checks that fail a run ask
// the best quarter of the slices instead (the 25th or 75th percentile): a
// failed run rejects whatever change is being measured, so it is kept for
// what a broken program does, in every slice, and not for what a busy host
// does, in the slices it takes away.
func slicePercentile(pct float64, per func(i int) (float64, bool)) float64 {
	vals := make([]float64, 0, windowSlices)
	for i := 0; i < windowSlices; i++ {
		if v, ok := per(i); ok {
			vals = append(vals, v)
		}
	}
	return stats.Percentile(vals, pct)
}

// opRate is slice i's ops per second.
func (l *liveRun) opRate(i int) (float64, bool) {
	if i >= len(l.slices) || l.slices[i].wall <= 0 {
		return 0, false
	}
	return float64(l.slices[i].ops) / l.slices[i].wall.Seconds(), true
}

// cpuPerOp is the median slice's CPU ns per op.
func (l *liveRun) cpuPerOp() float64 {
	return slicePercentile(50, func(i int) (float64, bool) {
		if i >= len(l.slices) || l.slices[i].ops == 0 {
			return 0, false
		}
		return float64(l.slices[i].cpu.Nanoseconds()) / float64(l.slices[i].ops), true
	})
}

func measureEgress(p params, spec liveSpec, tr *tracer) (*liveRun, error) {
	run := &liveRun{spec: spec, attempted: int64(spec.sessions)}
	e, setupS, err := medianSetup(3,
		func() (*egressLoad, error) { return startEgress(p, spec, tr) },
		(*egressLoad).stop,
	)
	if err != nil {
		return nil, err
	}
	time.Sleep(spec.settle)
	run.setupS = setupS + spec.settle.Seconds()
	run.startP50 = e.sink.startup.quantile(0.5) / 1e6
	run.startP99 = e.sink.startup.quantile(0.99) / 1e6

	t0 := takeProbe()
	e.win.open(t0.wall, seconds(p.seconds))
	c0 := e.sink.delivered()
	run.before, run.tr0 = e.rig.srv.Stats(), snapTracer(tr)
	run.slices = sleepWindow(seconds(p.seconds), e.sink.delivered)
	c1 := e.sink.delivered()
	run.after, run.tr1 = e.rig.srv.Stats(), snapTracer(tr)
	t1 := takeProbe()
	e.win.close(t1.wall)
	run.sessStats = e.rig.srv.SessionStats()
	streaming := e.sink.streaming()
	if err := e.stop(); err != nil {
		return nil, err
	}

	run.usage = t1.since(t0)
	run.datagrams = run.after.Datagrams - run.before.Datagrams
	run.ops = c1 - c0
	offered := float64(spec.sessions * spec.dgps)
	run.delivered = slicePercentile(50, run.opRate) / offered
	q := e.sink.quality()
	run.utility = q.utility()
	late := e.sink.lateness(time.Second / time.Duration(spec.dgps))
	run.latP50 = slicedPercentile(late, 50) / 1e6
	run.latP90 = slicedPercentile(late, 90) / 1e6
	run.memDrops = e.rig.mem.drops()
	run.peakRSS = peakRSSMB()

	run.failed = int64(spec.sessions-streaming) + int64(q.regressions+e.sink.crcFail.Load()+e.sink.foreign.Load())
	if run.failed > 0 {
		run.fail("%d sessions never streamed, %d sequence regressions, %d CRC failures, %d foreign datagrams",
			spec.sessions-streaming, q.regressions, e.sink.crcFail.Load(), e.sink.foreign.Load())
	}
	// A freeze of the VM longer than a session's bucket loses that much
	// rate once, in the slice it hits; the median slice does not see it.
	// Only a server that cannot carry the load at all fails the run.
	if best := slicePercentile(75, run.opRate) / offered; p.transport != "udp" && best < 0.98 {
		run.fail("delivered %.4f of the offered load in the best quarter of the window (%.4f in the median slice): the run is over capacity", best, run.delivered)
	}
	if run.memDrops > 0 {
		run.fail("memnet dropped %d datagrams at a full inbox", run.memDrops)
	}
	return run, nil
}

// swarmFailures counts receivers the swarm or the tap found broken.
func swarmFailures(run *liveRun, stats []wire.SwarmReceiverStats, t *tap, needComplete bool) {
	var never, regress, cross, incomplete int
	for _, st := range stats {
		bad := false
		if st.Datagrams == 0 {
			never++
			bad = true
		}
		if st.SeqRegressions > 0 {
			regress++
			bad = true
		}
		if st.CrossDeliveries > 0 {
			cross++
			bad = true
		}
		if needComplete && st.LastClose != wire.ReasonComplete {
			incomplete++
			bad = true
		}
		if bad {
			run.failed++
		}
	}
	q := t.quality()
	run.failed += int64(q.regressions + t.crcFail.Load() + t.foreign.Load())
	if run.failed > 0 {
		run.fail("receivers: %d never streamed, %d saw a sequence regression, %d a cross-socket delivery, %d no Close(complete); tap: %d regressions, %d CRC failures, %d foreign",
			never, regress, cross, incomplete, q.regressions, t.crcFail.Load(), t.foreign.Load())
	}
}

func measureLoop(p params, spec liveSpec, tr *tracer) (*liveRun, error) {
	run := &liveRun{spec: spec, attempted: int64(spec.sessions)}
	first := firstFlow(p.seed)
	s, setupS, err := medianSetup(3,
		func() (*swarmLoad, error) {
			r, err := newRig(p.transport, spec, nil, tr)
			if err != nil {
				return nil, err
			}
			s, err := startSwarm(p, r, spec, first, spec.sessions, 100*time.Millisecond)
			if err != nil {
				r.stop()
				return nil, err
			}
			if !waitFor(10*time.Second, func() bool { n, _ := s.tap.counts(); return n == spec.sessions }) {
				n, _ := s.tap.counts()
				s.stop()
				r.stop()
				return nil, fmt.Errorf("%s: only %d of %d receivers streaming", spec.name, n, spec.sessions)
			}
			return s, nil
		},
		func(s *swarmLoad) error { return errors.Join(s.stop(), s.rig.stop()) },
	)
	if err != nil {
		return nil, err
	}
	time.Sleep(spec.settle)
	run.setupS = setupS + spec.settle.Seconds()
	run.startP50 = s.tap.startup.quantile(0.5) / 1e6
	run.startP99 = s.tap.startup.quantile(0.99) / 1e6

	t0 := takeProbe()
	s.win.open(t0.wall, seconds(p.seconds))
	s.swarm.MarkSteady(t0.wall)
	run.before, run.tr0 = s.rig.srv.Stats(), snapTracer(tr)
	link0 := s.rig.shaped.Stats()
	hellos0 := s.tap.hellos.Load()
	run.slices = sleepWindow(seconds(p.seconds), func() uint64 { return s.rig.srv.Stats().Datagrams })
	run.after, run.tr1 = s.rig.srv.Stats(), snapTracer(tr)
	link1 := s.rig.shaped.Stats()
	t1 := takeProbe()
	s.win.close(t1.wall)
	stats := s.swarm.Stats()
	run.tapHellos = s.tap.hellos.Load() - hellos0
	run.sessStats = s.rig.srv.SessionStats()
	if err := errors.Join(s.stop(), s.rig.stop()); err != nil {
		return nil, err
	}

	run.usage = t1.since(t0)
	run.datagrams = run.after.Datagrams - run.before.Datagrams
	run.ops = run.datagrams
	run.link = wire.LinkStats{
		Enqueued:      link1.Enqueued - link0.Enqueued,
		Delivered:     link1.Delivered - link0.Delivered,
		OverflowDrops: link1.OverflowDrops - link0.OverflowDrops,
	}
	var steady units.BitRate
	var green wire.ColorCount
	for _, st := range stats {
		steady += st.SteadyRate()
		g := st.Colors[packet.Green]
		green.Received += g.Received
		green.Lost += g.Lost
	}
	run.goodputAll = steady.Bps() / spec.link.capacity.Bps()
	run.greenLoss = green.LossRate()
	// What the viewers got is judged by the median slice, as the timings
	// are. A freeze of the VM makes every session's bucket burst into the
	// 16 ms queue at once when it ends: that costs green packets (about
	// 0.4 % of a 10 s window's per freeze) and then some hundred ms of
	// goodput while MKC climbs back, in the slices it hits and no others. A
	// broken drop order or control loop shows in every slice.
	sl := s.tap.sliced()
	goodput := func(i int) (float64, bool) {
		return float64(sl[i].bytes) * 8 / s.win.span(i).Seconds() / spec.link.capacity.Bps(), sl[i].bytes > 0
	}
	greenLoss := func(i int) (float64, bool) { return sl[i].greenLoss(), sl[i].greenRecv > 0 }
	run.delivered = slicePercentile(50, goodput)
	run.utility = slicePercentile(50, func(i int) (float64, bool) { return sl[i].utility(), sl[i].recvEnh > 0 })
	run.latP50 = s.tap.green.quantile(0.5) / 1e6
	run.latP90 = s.tap.green.quantile(0.9) / 1e6
	run.memDrops = s.rig.mem.drops()
	run.peakRSS = peakRSSMB()

	swarmFailures(run, stats, s.tap, false)
	// A broken drop order would put green loss near the link's 6 %.
	if best := slicePercentile(25, greenLoss); best > 1e-3 {
		run.fail("green loss %.5f in the best quarter of the window (%.5f over all of it) exceeds 1e-3: the base layer is not protected", best, run.greenLoss)
	}
	if best := slicePercentile(75, goodput); p.transport != "udp" && best < 0.97 {
		run.fail("goodput is %.4f of the link in the best quarter of the window (%.4f over all of it): the control loop did not hold the link full", best, run.goodputAll)
	}
	if run.memDrops > 0 {
		run.fail("memnet dropped %d datagrams at a full inbox", run.memDrops)
	}
	return run, nil
}

func measureChurn(p params, spec liveSpec, tr *tracer) (*liveRun, error) {
	first := firstFlow(p.seed)
	arrivals := int(float64(spec.sessions) * p.seconds)
	warm := int(float64(spec.sessions) * spec.settle.Seconds())
	run := &liveRun{spec: spec, attempted: int64(arrivals)}

	r, setupS, err := medianSetup(3,
		func() (*rig, error) { return newRig(p.transport, spec, nil, tr) },
		(*rig).stop,
	)
	if err != nil {
		return nil, err
	}
	// A warm-up wave at the measured rate sizes the table's maps, the
	// wheel's slots and the heap before the window opens.
	warmStart := time.Now()
	w, err := startSwarm(p, r, spec, first+uint32(arrivals), warm, spec.settle)
	if err != nil {
		r.stop()
		return nil, err
	}
	waitFor(spec.settle+2*time.Second, func() bool { _, done := w.tap.counts(); return done == warm })
	if err := w.stop(); err != nil {
		r.stop()
		return nil, err
	}
	run.setupS = setupS + time.Since(warmStart).Seconds()

	t0 := takeProbe()
	run.before, run.tr0 = r.srv.Stats(), snapTracer(tr)
	s, err := startSwarm(p, r, spec, first, arrivals, seconds(p.seconds))
	if err != nil {
		r.stop()
		return nil, err
	}
	s.win.open(t0.wall, seconds(p.seconds))
	run.slices = sleepWindow(seconds(p.seconds), func() uint64 { return r.srv.Stats().Completed })
	// The window closes when the last arrival has completed, so every
	// session's whole cost is inside it.
	waitFor(2*time.Second, func() bool { _, done := s.tap.counts(); return done == arrivals })
	run.after, run.tr1 = r.srv.Stats(), snapTracer(tr)
	t1 := takeProbe()
	s.win.close(t1.wall)
	stats := s.swarm.Stats()
	run.tapHellos = s.tap.hellos.Load()
	if err := errors.Join(s.stop(), r.stop()); err != nil {
		return nil, err
	}

	run.usage = t1.since(t0)
	run.datagrams = run.after.Datagrams - run.before.Datagrams
	run.ops = run.after.Completed - run.before.Completed
	run.delivered = float64(run.ops) / float64(arrivals)
	run.utility = s.tap.quality().utility()
	run.latP50 = s.tap.startupIn.quantile(0.5) / 1e6
	run.latP90 = s.tap.startupIn.quantile(0.9) / 1e6
	run.startP50 = run.latP50
	run.startP99 = s.tap.startup.quantile(0.99) / 1e6
	run.memDrops = r.mem.drops()
	run.peakRSS = peakRSSMB()

	swarmFailures(run, stats, s.tap, true)
	if run.memDrops > 0 {
		run.fail("memnet dropped %d datagrams at a full inbox", run.memDrops)
	}
	return run, nil
}

// endToEndMetrics turns a window into the gated metrics.
func (l *liveRun) endToEndMetrics() map[string]float64 {
	return map[string]float64{
		"setup_s":        l.setupS,
		"cpu_ns_per_op":  l.cpuPerOp(),
		"ops_per_s":      slicePercentile(50, l.opRate),
		"delivered_frac": l.delivered,
		"utility":        l.utility,
		"latency_p50_ms": l.latP50,
		"latency_p90_ms": l.latP90,
		"peak_rss_mb":    l.peakRSS,
	}
}
