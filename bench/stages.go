package main

import (
	"net"
	"runtime"
	"slices"
	"time"

	"repro/internal/aqm"
	"repro/internal/cc"
	"repro/internal/experiments"
	"repro/internal/fgs"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/queue"
	"repro/internal/session"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/wire"
)

// Stage chains time the layers one at a time, from the benchmark's own
// files, through each package's public API. A chain is composing: it runs
// its first stage alone, then the first two, and so on, and a stage's cost
// is the difference between consecutive prefixes — so the rows of a chain
// add up to the whole chain by construction, which is what lets the budget
// table compare their sum with the end-to-end cost per datagram.

// stageSink keeps results alive so the compiler cannot drop a timed call.
var stageSink uint64

// timeSpans runs batch — which reports how many operations it did and how
// long the timed part of them took — until budget is spent, at least five
// times, and returns the median ns per operation.
func timeSpans(budget time.Duration, batch func() (int, time.Duration)) float64 {
	var samples []float64
	deadline := time.Now().Add(budget)
	for len(samples) < 5 || (time.Now().Before(deadline) && len(samples) < 4096) {
		ops, d := batch()
		samples = append(samples, float64(d.Nanoseconds())/float64(ops))
	}
	return stats.Percentile(samples, 50)
}

// timeIt is timeSpans for a batch that is timed whole.
func timeIt(budget time.Duration, batch func() int) float64 {
	return timeSpans(budget, func() (int, time.Duration) {
		start := time.Now()
		ops := batch()
		return ops, time.Since(start)
	})
}

// allocsPer runs fn n times and returns heap allocations and bytes per call.
func allocsPer(n int, fn func()) (allocs, bytes float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n), float64(b.TotalAlloc-a.TotalAlloc) / float64(n)
}

// step is a stage's cost as the difference of two chain prefixes; timing
// noise can make a cheap stage's difference slightly negative.
func step(longer, shorter float64) float64 {
	if longer < shorter {
		return 0
	}
	return longer - shorter
}

// stages is the output of the live stage chains, in ns unless named
// otherwise.
type stages struct {
	packetsPerFrame float64

	planPerFrame, encode, pacer, sinkWrite float64 // egress chain
	wheelAdvance, wheelSchedule            float64
	memWrite, memRead, udpWrite, udpRead   float64

	decode, key, keyAllocs, batchAdd, tableGet, feedbackItem float64 // ingress chain
	mkc, gamma                                               float64

	newSession, newAllocs, newBytes, putDelete, controlEncode float64 // churn
}

// wakePeriod is how long a session of spec sleeps between pumps, which
// sets how the wheel stage spreads its timers.
func wakePeriod(spec liveSpec) time.Duration {
	rate := spec.sessionConfig().MKC.InitialRate
	per := rate.TransmissionTime(pktSize)
	if per < time.Millisecond {
		return time.Millisecond
	}
	return per
}

// liveStages runs every live stage for spec's geometry within budget.
func liveStages(spec liveSpec, budget time.Duration) stages {
	const nStages = 16
	each := budget / nStages
	var st stages
	cfg := spec.sessionConfig().WithDefaults()

	// Egress chain: plan -> +encode -> +pace -> +write, per frame.
	pk := fgs.MustNewPacketizer(cfg.Frame)
	frameBudget := fgs.ConstantScaler{}.Budget(0, cfg.MKC.InitialRate, cfg.FrameInterval)
	st.packetsPerFrame = float64(pk.PlanShare(0, frameBudget, 0.5, cfg.RedShare).Total())
	payload := make([]byte, cfg.Frame.PacketSize-wire.HeaderSize)
	buf := make([]byte, 0, cfg.Frame.PacketSize)
	pacer := wire.NewPacer(units.BitRate(1e12), cfg.BurstBytes)
	out := newSink(1, 64, 64, 0, cfg.Frame, newWindow())
	now := time.Now()
	var seq uint64
	egress := func(depth int) float64 {
		return timeIt(each, func() int {
			const frames = 64
			for f := 0; f < frames; f++ {
				plan := pk.PlanShare(f, frameBudget, 0.5, cfg.RedShare)
				for i, n := 0, plan.Total(); i < n; i++ {
					color := plan.Color(i)
					stageSink += uint64(color)
					if depth >= 1 {
						seq++
						buf, _ = wire.AppendDatagram(buf[:0], wire.Header{
							Type: wire.TypeData, Color: color, Flow: 2, Frame: uint32(f), Index: uint16(i),
							Seq: seq, Timestamp: now.UnixNano(),
						}, payload)
					}
					if depth >= 2 {
						now = now.Add(time.Microsecond)
						stageSink += uint64(pacer.Reserve(len(buf), now))
					}
					if depth >= 3 {
						out.WriteTo(buf, nil)
					}
				}
			}
			return frames
		})
	}
	e0, e1, e2, e3 := egress(0), egress(1), egress(2), egress(3)
	st.planPerFrame = e0
	st.encode = step(e1, e0) / st.packetsPerFrame
	st.pacer = step(e2, e1) / st.packetsPerFrame
	st.sinkWrite = step(e3, e2) / st.packetsPerFrame

	// Wheel: the workload's timer population, each re-armed one wake
	// period ahead as a worker would.
	timers := spec.sessions
	if spec.kind == kindChurn {
		timers = spec.sessions / 10 // ~100 ms sessions at this arrival rate
	}
	period := wakePeriod(spec)
	t0 := time.Unix(0, 0)
	nop := func(time.Time) {}
	wheel := session.NewWheel(time.Millisecond, 512, t0)
	for i := 0; i < timers; i++ {
		wheel.Schedule(t0.Add(time.Duration(i%int(period/time.Millisecond)+1)*time.Millisecond), nop)
	}
	wnow := t0
	var fired []*session.Timer
	st.wheelAdvance = timeIt(each, func() int {
		n := 0
		for n == 0 {
			for k := 0; k < 64; k++ {
				wnow = wnow.Add(time.Millisecond)
				fired = wheel.Advance(wnow, fired[:0])
				for _, t := range fired {
					wheel.Reschedule(t, wnow.Add(period))
				}
				n += len(fired)
			}
		}
		return n
	})
	st.wheelSchedule = timeIt(each, func() int {
		w := session.NewWheel(time.Millisecond, 512, t0)
		for i := 0; i < 1024; i++ {
			w.Schedule(t0.Add(time.Duration(i%16+1)*time.Millisecond), nop)
		}
		return 1024
	})

	// Transports: the harness's own, and the kernel's for comparison.
	mem := newMemNetwork(1024, 2*pktSize)
	a, b := mem.listen(), mem.listen()
	rbuf := make([]byte, wire.MaxDatagram+1)
	st.memWrite, st.memRead = transportPair(each, a, b, buf, rbuf, 512)
	if ua, err := net.ListenPacket("udp", "127.0.0.1:0"); err == nil {
		if ub, err := net.ListenPacket("udp", "127.0.0.1:0"); err == nil {
			// 128 datagrams stay well inside a default socket buffer.
			st.udpWrite, st.udpRead = transportPair(each, ua, ub, buf, rbuf, 128)
			ub.Close()
		}
		ua.Close()
	}

	// Ingress chain: read -> +decode -> +key -> +batch -> +lookup ->
	// +dispatch, per feedback datagram, one datagram a session a round as
	// one gateway epoch produces.
	sessions := spec.sessions
	if sessions > 512 {
		sessions = 512
	}
	table := session.NewTable(8)
	peerKey := a.LocalAddr().String()
	var one *session.Session // any session, for the put/delete stage
	for i := 0; i < sessions; i++ {
		key := session.Key{Addr: peerKey, Flow: uint32(i + 1)}
		s, err := session.NewSession(key, a.LocalAddr(), out, cfg, t0)
		if err != nil {
			panic(err) // the workload's own config; a bug if it is invalid
		}
		table.Put(key, s)
		one = s
	}
	batcher := session.NewBatcher(64, 2*time.Millisecond)
	var scratch []packet.Feedback
	var epoch uint64
	dispatch := func(batch []session.FeedbackItem, depth int, at time.Time) {
		slices.SortStableFunc(batch, func(x, y session.FeedbackItem) int {
			if x.Key.Addr != y.Key.Addr {
				if x.Key.Addr < y.Key.Addr {
					return -1
				}
				return 1
			}
			return int(x.Key.Flow) - int(y.Key.Flow)
		})
		for _, it := range batch {
			s := table.Get(it.Key)
			if depth >= 5 && s != nil {
				scratch = append(scratch[:0], it.FB)
				stageSink += uint64(s.HandleFeedbackBatch(scratch, at))
			}
		}
	}
	ingress := func(depth int) float64 {
		return timeSpans(each, func() (int, time.Duration) {
			epoch++
			for i := 0; i < sessions; i++ {
				buf, _ = wire.AppendDatagram(buf[:0], wire.Header{
					Type: wire.TypeFeedback, Color: packet.ACK, Flow: uint32(i + 1), Seq: epoch,
					Feedback: packet.Feedback{RouterID: 1, Epoch: epoch, Loss: 0.0625, Valid: true},
				}, nil)
				a.WriteTo(buf, b.LocalAddr())
			}
			at := t0.Add(time.Duration(epoch) * 50 * time.Millisecond)
			start := time.Now()
			for i := 0; i < sessions; i++ {
				n, from, _ := b.ReadFrom(rbuf)
				if depth < 1 {
					continue
				}
				h, _, _ := wire.DecodeDatagram(rbuf[:n])
				stageSink += h.Seq
				if depth < 2 {
					continue
				}
				key := session.Key{Addr: from.String(), Flow: h.Flow}
				stageSink += uint64(len(key.Addr))
				if depth < 3 {
					continue
				}
				if batch := batcher.Add(session.FeedbackItem{Key: key, FB: h.Feedback}, at); batch != nil && depth >= 4 {
					dispatch(batch, depth, at)
				}
			}
			return sessions, time.Since(start)
		})
	}
	i0, i1, i2, i3, i4, i5 := ingress(0), ingress(1), ingress(2), ingress(3), ingress(4), ingress(5)
	st.decode = step(i1, i0)
	st.key = step(i2, i1)
	st.batchAdd = step(i3, i2)
	st.tableGet = step(i4, i3)
	st.feedbackItem = step(i5, i4)
	from := a.LocalAddr()
	st.keyAllocs, _ = allocsPer(4096, func() {
		key := session.Key{Addr: from.String(), Flow: 7}
		stageSink += uint64(len(key.Addr))
	})

	mkc := cc.NewMKC(cfg.MKC)
	var mkcEpoch uint64
	st.mkc = timeIt(each, func() int {
		for i := 0; i < 4096; i++ {
			mkcEpoch++
			mkc.OnFeedback(packet.Feedback{RouterID: 1, Epoch: mkcEpoch, Loss: 0.0625, Valid: true})
		}
		return 4096
	})
	gamma := fgs.MustNewGamma(cfg.Gamma)
	st.gamma = timeIt(each, func() int {
		for i := 0; i < 4096; i++ {
			stageSink += uint64(gamma.Update(0.0625))
		}
		return 4096
	})

	// Admission: what one arriving session costs before its first pump.
	key := session.Key{Addr: peerKey, Flow: 1 << 30}
	st.newSession = timeIt(each, func() int {
		for i := 0; i < 256; i++ {
			s, _ := session.NewSession(key, from, out, cfg, t0)
			stageSink += uint64(s.Key().Flow)
		}
		return 256
	})
	st.newAllocs, st.newBytes = allocsPer(1024, func() {
		s, _ := session.NewSession(key, from, out, cfg, t0)
		stageSink += uint64(s.Key().Flow)
	})
	st.putDelete = timeIt(each, func() int {
		for i := 0; i < 1024; i++ {
			k := session.Key{Addr: peerKey, Flow: 1<<30 + uint32(i)}
			table.Put(k, one)
			table.Delete(k, false)
		}
		return 1024
	})
	st.controlEncode = timeIt(each, func() int {
		for i := 0; i < 1024; i++ {
			h := wire.ControlHeader(wire.TypeClose, uint32(i), wire.ReasonComplete, 0, int64(i))
			buf, _ = wire.AppendDatagram(buf[:0], h, nil)
		}
		return 1024
	})
	return st
}

// transportPair times WriteTo from a to b and ReadFrom on b, n datagrams a
// batch, and returns the median ns per call of each.
func transportPair(budget time.Duration, a, b net.PacketConn, payload, rbuf []byte, n int) (write, read float64) {
	if len(payload) == 0 {
		payload = make([]byte, pktSize)
	}
	var writes, reads []float64
	deadline := time.Now().Add(budget)
	b.SetReadDeadline(time.Time{})
	for len(writes) < 5 || time.Now().Before(deadline) {
		start := time.Now()
		for i := 0; i < n; i++ {
			a.WriteTo(payload, b.LocalAddr())
		}
		mid := time.Now()
		got := 0
		b.SetReadDeadline(mid.Add(100 * time.Millisecond))
		for ; got < n; got++ {
			if _, _, err := b.ReadFrom(rbuf); err != nil {
				break // a loopback drop: keep what was read
			}
		}
		end := time.Now()
		writes = append(writes, float64(mid.Sub(start).Nanoseconds())/float64(n))
		if got > 0 {
			reads = append(reads, float64(end.Sub(mid).Nanoseconds())/float64(got))
		}
	}
	return stats.Percentile(writes, 50), stats.Percentile(reads, 50)
}

// simStages is the output of the simulator's stage calls, ns per unit.
type simStages struct {
	scheduleFire, allocsPerEvent  float64
	transit, priority, stamp, mkc float64
	buildTestbed                  float64
}

// runSimStages times each simulator layer through its public API.
func runSimStages(budget time.Duration) simStages {
	const nStages = 6
	each := budget / nStages
	var st simStages

	// Calendar queue: 1024 self-rescheduling events with mixed periods.
	eng := sim.NewEngine(1)
	var fns [1024]func()
	for i := range fns {
		delay := time.Millisecond + time.Duration(i)*time.Microsecond
		i := i
		fns[i] = func() { eng.ScheduleFunc(delay, fns[i]) }
		eng.ScheduleFunc(delay, fns[i])
	}
	horizon := time.Duration(0)
	fire := func() int {
		before := eng.Processed()
		horizon += 64 * time.Millisecond
		if err := eng.RunUntil(horizon); err != nil {
			panic(err)
		}
		return int(eng.Processed() - before)
	}
	st.scheduleFire = timeIt(each, fire)
	var events int
	st.allocsPerEvent, _ = allocsPer(1, func() { events = fire() })
	st.allocsPerEvent /= float64(events)

	// One link between two hosts: enqueue, serialize, propagate, deliver.
	neng := sim.NewEngine(1)
	nw := netsim.NewNetwork(neng)
	nw.EnablePacketPool()
	src, dst := nw.NewHost("src"), nw.NewHost("dst")
	nw.Connect(src, dst, netsim.LinkConfig{Rate: units.Gbps, Delay: time.Millisecond}, netsim.LinkConfig{Rate: units.Gbps, Delay: time.Millisecond})
	if err := nw.ComputeRoutes(); err != nil {
		panic(err)
	}
	st.transit = timeIt(each, func() int {
		for i := 0; i < 512; i++ {
			src.Send(nw.NewPacket(1, dst.ID(), 500, packet.Green))
		}
		if err := neng.Run(); err != nil {
			panic(err)
		}
		return 512
	})

	// Strict-priority queue: the paper's three colours in plan order.
	pq := queue.NewPriority(queue.DefaultPriorityConfig())
	pkts := make([]*packet.Packet, 64)
	for i := range pkts {
		pkts[i] = &packet.Packet{Size: 500, Color: packet.Green + packet.Color(i%3)}
	}
	st.priority = timeIt(each, func() int {
		for r := 0; r < 64; r++ {
			for _, p := range pkts {
				pq.Enqueue(p)
			}
			for pq.Dequeue() != nil {
			}
		}
		return 64 * len(pkts)
	})

	// Feedback stamping at the bottleneck router.
	fb := aqm.NewFeedback(sim.NewEngine(1), aqm.FeedbackConfig{RouterID: 1, Interval: 30 * time.Millisecond, Capacity: 2 * units.Mbps})
	st.stamp = timeIt(each, func() int {
		for r := 0; r < 64; r++ {
			for _, p := range pkts {
				fb.Process(p)
			}
		}
		return 64 * len(pkts)
	})

	mkc := cc.NewMKC(cc.DefaultMKCConfig())
	var epoch uint64
	st.mkc = timeIt(each, func() int {
		for i := 0; i < 4096; i++ {
			epoch++
			mkc.OnFeedback(packet.Feedback{RouterID: 1, Epoch: epoch, Loss: 0.05, Valid: true})
		}
		return 4096
	})

	st.buildTestbed = timeIt(each, func() int {
		tb, err := experiments.NewTestbed(experiments.DefaultTestbedConfig())
		if err != nil {
			panic(err)
		}
		stageSink += uint64(len(tb.Sources))
		return 1
	})
	return st
}
