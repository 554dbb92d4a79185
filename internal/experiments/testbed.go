// Package experiments regenerates every table and figure of the paper's
// evaluation (§6) and the extensions. Each is a registry entry (Registry,
// Lookup): one run at a seed that prints its summary as Output, reports
// its scalars once in Metrics, which the claims table checks, and exports
// its plotted series as Artifacts. The simulator runs build the bar-bell
// topology of Fig. 6 (Testbed) — multiple PELS and TCP sources sharing a
// single bottleneck.
package experiments

import (
	"fmt"
	"time"

	"repro/internal/aqm"
	"repro/internal/cc"
	"repro/internal/crosstraffic"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/pels"
	"repro/internal/queue"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tcp"
	"repro/internal/units"
)

// TestbedConfig describes one bar-bell simulation run.
type TestbedConfig struct {
	// Seed drives all randomness in the run.
	Seed int64
	// BottleneckRate is the shared link capacity (paper: 4 mb/s).
	BottleneckRate units.BitRate
	// AccessRate is the per-host access link capacity (paper: 10 mb/s).
	AccessRate units.BitRate
	// AccessDelay and BottleneckDelay are one-way propagation delays.
	AccessDelay     time.Duration
	BottleneckDelay time.Duration
	// Bottleneck sizes the router queue structure.
	Bottleneck aqm.BottleneckConfig
	// FeedbackInterval is T (paper: 30 ms).
	FeedbackInterval time.Duration
	// Session is the template for every PELS flow (Flow is assigned per
	// flow; best-effort marking comes from BestEffort below).
	Session pels.Config
	// NumPELS is the number of video flows; StartTimes optionally sets
	// per-flow start times (default: all at 0).
	NumPELS    int
	StartTimes []time.Duration
	// AccessDelays optionally sets per-flow access-link delays (both the
	// sender and receiver side), overriding AccessDelay; used by the
	// RTT-fairness experiment. Missing entries fall back to AccessDelay.
	AccessDelays []time.Duration
	// SessionTweaks optionally customizes individual flows' session
	// configs after the template is applied (heterogeneous populations:
	// mixed controllers, frame intervals, γ settings). Indexed by flow;
	// nil entries keep the template.
	SessionTweaks []func(*pels.Config)
	// NumTCP is the number of greedy TCP cross-traffic flows sharing the
	// Internet queue (paper keeps the Internet half of the link loaded).
	NumTCP int
	// NumOnOff adds bursty non-responsive on-off sources to the Internet
	// queue (exponential by default; set OnOffPareto for heavy tails).
	NumOnOff    int
	OnOffPareto float64
	// BestEffort switches the whole run to the §6.5 baseline: unmarked
	// enhancement layer and a uniform-random-drop video queue.
	BestEffort bool
	// GreenOnlyFeedback restricts feedback stamping to green packets — the
	// design the paper rejects in §5.1 because base-layer packet spacing
	// ages the feedback. Used by the ablation suite.
	GreenOnlyFeedback bool
}

// DefaultTestbedConfig mirrors the paper's Fig. 6 setup.
func DefaultTestbedConfig() TestbedConfig {
	return TestbedConfig{
		Seed:             1,
		BottleneckRate:   4 * units.Mbps,
		AccessRate:       10 * units.Mbps,
		AccessDelay:      5 * time.Millisecond,
		BottleneckDelay:  10 * time.Millisecond,
		Bottleneck:       aqm.DefaultBottleneckConfig(),
		FeedbackInterval: 30 * time.Millisecond,
		Session:          pels.Config{},
		NumPELS:          2,
		NumTCP:           2,
	}
}

// PELSCapacity returns the WRR share of the bottleneck available to video
// traffic — the C used in the router's feedback computation.
func (c TestbedConfig) PELSCapacity() units.BitRate {
	total := c.Bottleneck.PELSWeight + c.Bottleneck.InternetWeight
	if total <= 0 {
		return c.BottleneckRate
	}
	return units.BitRate(float64(c.BottleneckRate) * c.Bottleneck.PELSWeight / total)
}

// Testbed is a constructed bar-bell simulation ready to run.
type Testbed struct {
	Cfg TestbedConfig
	Eng *sim.Engine
	Net *netsim.Network

	// R1 is the bottleneck (feedback-computing) router; R2 the far side.
	R1, R2 *netsim.Router
	// Forward is the congested R1→R2 link; Reverse carries ACKs.
	Forward, Reverse *netsim.Link
	Feedback         *aqm.Feedback

	// PELSQueues is non-nil for PELS runs; BEQueues for baseline runs.
	PELSQueues *aqm.Bottleneck
	BEQueues   *aqm.BestEffortBottleneck

	Sources []*pels.Source
	Sinks   []*pels.Sink

	TCPSenders   []*tcp.Sender
	TCPReceivers []*tcp.Receiver
	OnOffSources []*crosstraffic.OnOff

	// Obs is the run's metric registry. Every series below is backed by
	// it, the bottleneck queue counters are registered as pull gauges,
	// and experiments export the whole registry through Result.Obs.
	Obs *obs.Registry

	// LayerDelay holds one delay series per PELS priority layer, sampled
	// at bottleneck transmission time ("green_delay_ms", "yellow_delay_ms",
	// "red_delay_ms", "layer3_delay_ms", ...). GreenDelay, YellowDelay and
	// RedDelay alias the first three entries for the paper's 3-layer runs.
	// All four are nil unless RecordTraces attached the recorder: at a
	// sample a packet, a long run's series would be most of its heap.
	LayerDelay                        []*stats.TimeSeries
	GreenDelay, YellowDelay, RedDelay *stats.TimeSeries
	// FeedbackLoss records the router's p(k) series; FeedbackRate the
	// measured aggregate arrival rate R(k) in kb/s. Both are recorded by
	// the aqm.Feedback processor itself via the registry.
	FeedbackLoss, FeedbackRate *stats.TimeSeries
	// RateSeries and GammaSeries are indexed by PELS flow. GammaSeries is
	// nil unless RecordTraces attached the recorder.
	RateSeries  []*stats.TimeSeries
	GammaSeries []*stats.TimeSeries
	// RedLossSeries samples the top (probe) layer queue's interval loss
	// rate (PELS runs) or the video queue's loss rate (best-effort runs).
	RedLossSeries *stats.TimeSeries
	// DropSeries samples per-interval drop counts of the PELS layer
	// queues, keyed by layer color ("green_drops", "yellow_drops",
	// "red_drops", "layer3_drops", ...); nil for best-effort runs, which
	// have a single video queue.
	DropSeries map[packet.Color]*stats.TimeSeries
	// VideoBytesTransmitted counts video (PELS + best-effort colored)
	// bytes serialized onto the bottleneck — the denominator of useful
	// link utilization.
	VideoBytesTransmitted int64

	queueProbe *sim.Ticker
	prevLayer  []queue.Counters
	prevVideo  queue.Counters
}

// NewTestbed builds the topology, queues, flows, and instrumentation.
func NewTestbed(cfg TestbedConfig) (*Testbed, error) {
	if cfg.NumPELS <= 0 {
		return nil, fmt.Errorf("experiments: NumPELS must be positive, got %d", cfg.NumPELS)
	}
	if cfg.FeedbackInterval <= 0 {
		cfg.FeedbackInterval = 30 * time.Millisecond
	}
	eng := sim.NewEngine(cfg.Seed)
	net := netsim.NewNetwork(eng)
	// All testbed apps and hooks copy packet values instead of retaining
	// pointers, so the recycling pool is safe here.
	net.EnablePacketPool()

	// The bottleneck's layer count drives every per-layer series and, for
	// non-classic counts, the sessions' plan split.
	numLayers := cfg.Bottleneck.Priority.NumLayers()

	reg := obs.NewRegistry()
	eng.Instrument(reg, "engine.")
	tb := &Testbed{
		Cfg: cfg,
		Eng: eng,
		Net: net,
		Obs: reg,
	}
	tb.FeedbackLoss = reg.Series("feedback_loss").TimeSeries()
	tb.FeedbackRate = reg.Series("feedback_rate_kbps").TimeSeries()
	tb.RedLossSeries = reg.Series("red_loss").TimeSeries()

	tb.R1 = net.NewRouter("r1")
	tb.R2 = net.NewRouter("r2")

	// The feedback processor must exist before the bottleneck queues for
	// best-effort runs (the oracle queue samples its loss). It records
	// the feedback_loss / feedback_rate_kbps series through the registry.
	tb.Feedback = aqm.NewFeedback(eng, aqm.FeedbackConfig{
		RouterID:        tb.R1.ID(),
		Interval:        cfg.FeedbackInterval,
		Capacity:        cfg.PELSCapacity(),
		Obs:             reg,
		StampBestEffort: cfg.BestEffort,
		GreenOnly:       cfg.GreenOnlyFeedback,
	})

	// Bottleneck queue structure. The live queue counters are exported as
	// pull gauges under queue.<name>.*.
	var disc queue.Discipline
	if cfg.BestEffort {
		tb.BEQueues = aqm.NewBestEffortBottleneck(cfg.Bottleneck, func() float64 {
			if l := tb.Feedback.Loss(); l > 0 {
				return l
			}
			return 0
		}, eng.Rand())
		disc = tb.BEQueues.Disc
		tb.BEQueues.Video.Observe(reg, "queue.video.")
		tb.BEQueues.Internet.Observe(reg, "queue.internet.")
	} else {
		tb.PELSQueues = aqm.NewBottleneck(cfg.Bottleneck)
		disc = tb.PELSQueues.Disc
		tb.DropSeries = make(map[packet.Color]*stats.TimeSeries, numLayers)
		for i := 0; i < numLayers; i++ {
			name := packet.LayerName(i)
			tb.DropSeries[packet.LayerColor(i)] = reg.Series(name + "_drops").TimeSeries()
			tb.PELSQueues.PELS.Layer(i).Observe(reg, "queue."+name+".")
		}
		tb.PELSQueues.Internet.Observe(reg, "queue.internet.")
	}

	// Bottleneck duplex link R1<->R2. The reverse direction carries only
	// ACKs and is served by a plain FIFO.
	tb.Forward, tb.Reverse = net.Connect(tb.R1, tb.R2,
		netsim.LinkConfig{Rate: cfg.BottleneckRate, Delay: cfg.BottleneckDelay, Disc: disc},
		netsim.LinkConfig{Rate: cfg.BottleneckRate, Delay: cfg.BottleneckDelay},
	)
	// Feedback measures and stamps per bottleneck queue (the forward
	// link), not per router — see netsim.Link.Proc.
	tb.Forward.Proc = tb.Feedback
	tb.Forward.Instrument(reg, "bottleneck.")
	tb.Forward.OnTransmit = func(p *packet.Packet) {
		if l, ok := p.Color.Layer(); ok && l < len(tb.LayerDelay) {
			tb.LayerDelay[l].Add(eng.Now(), float64(p.QueueingDelay())/float64(time.Millisecond))
		}
		if p.Color.IsPELS() || p.Color == packet.BestEffort {
			tb.VideoBytesTransmitted += int64(p.Size)
		}
	}

	// Per-interval queue probe: top-layer loss rate (Fig. 7 right) and
	// per-layer drop counts.
	tb.prevLayer = make([]queue.Counters, numLayers)
	tb.queueProbe = sim.NewTicker(eng, cfg.FeedbackInterval*10, tb.probeQueues)
	tb.queueProbe.Start()

	// Video flows.
	accessCfg := netsim.LinkConfig{Rate: cfg.AccessRate, Delay: cfg.AccessDelay}
	for i := 0; i < cfg.NumPELS; i++ {
		scfg := cfg.Session
		scfg.Flow = 100 + i
		if scfg.Layers == 0 && numLayers != 3 {
			// Non-classic bottlenecks imply matching N-layer sessions
			// unless the template pins a count explicitly.
			scfg.Layers = numLayers
		}
		if cfg.BestEffort {
			scfg.BestEffort = true
		}
		if i < len(cfg.SessionTweaks) && cfg.SessionTweaks[i] != nil {
			cfg.SessionTweaks[i](&scfg)
		}
		scfg.RateSeries = reg.Series(fmt.Sprintf("rate_kbps_f%d", i))
		srcHost := net.NewHost(fmt.Sprintf("s%d", i))
		dstHost := net.NewHost(fmt.Sprintf("d%d", i))
		flowAccess := accessCfg
		if i < len(cfg.AccessDelays) {
			flowAccess.Delay = cfg.AccessDelays[i]
		}
		net.Connect(srcHost, tb.R1, flowAccess, flowAccess)
		net.Connect(tb.R2, dstHost, flowAccess, flowAccess)
		src, sink, err := pels.Session(net, srcHost, dstHost, scfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: build flow %d: %w", i, err)
		}
		tb.RateSeries = append(tb.RateSeries, scfg.RateSeries.TimeSeries())
		tb.Sources = append(tb.Sources, src)
		tb.Sinks = append(tb.Sinks, sink)
	}

	// TCP cross traffic.
	for i := 0; i < cfg.NumTCP; i++ {
		srcHost := net.NewHost(fmt.Sprintf("t%d", i))
		dstHost := net.NewHost(fmt.Sprintf("u%d", i))
		net.Connect(srcHost, tb.R1, accessCfg, accessCfg)
		net.Connect(tb.R2, dstHost, accessCfg, accessCfg)
		recv := tcp.NewReceiver(net, dstHost, 500+i)
		send := tcp.NewSender(net, srcHost, dstHost.ID(), 500+i)
		tb.TCPSenders = append(tb.TCPSenders, send)
		tb.TCPReceivers = append(tb.TCPReceivers, recv)
	}

	// Bursty non-responsive cross traffic.
	for i := 0; i < cfg.NumOnOff; i++ {
		srcHost := net.NewHost(fmt.Sprintf("o%d", i))
		dstHost := net.NewHost(fmt.Sprintf("p%d", i))
		net.Connect(srcHost, tb.R1, accessCfg, accessCfg)
		net.Connect(tb.R2, dstHost, accessCfg, accessCfg)
		tb.OnOffSources = append(tb.OnOffSources, crosstraffic.NewOnOff(net, srcHost, dstHost.ID(), 700+i, cfg.OnOffPareto))
	}

	if err := net.ComputeRoutes(); err != nil {
		return nil, fmt.Errorf("experiments: routing: %w", err)
	}
	return tb, nil
}

// RecordTraces attaches the recorder of the traces figures publish. It
// registers one "<layer>_delay_ms" series per priority layer (LayerDelay
// and its three aliases), to which every video packet the bottleneck
// transmits adds a sample, and one "gamma_f<i>" series per PELS flow
// (GammaSeries), to which every γ update adds one. Only runs that read or
// publish the traces call it, before Run; the others keep no history that
// grows with packets, and of the per-feedback ones only the rates.
func (tb *Testbed) RecordTraces() {
	n := tb.Cfg.Bottleneck.Priority.NumLayers()
	tb.LayerDelay = make([]*stats.TimeSeries, n)
	for i := range tb.LayerDelay {
		tb.LayerDelay[i] = tb.Obs.Series(packet.LayerName(i) + "_delay_ms").TimeSeries()
	}
	tb.GreenDelay, tb.YellowDelay, tb.RedDelay = tb.LayerDelay[0], tb.LayerDelay[1], tb.LayerDelay[min(2, n-1)]
	tb.GammaSeries = make([]*stats.TimeSeries, len(tb.Sources))
	for i, src := range tb.Sources {
		s := tb.Obs.Series(fmt.Sprintf("gamma_f%d", i))
		src.RecordGamma(s)
		tb.GammaSeries[i] = s.TimeSeries()
	}
}

func (tb *Testbed) probeQueues() {
	now := tb.Eng.Now()
	if tb.PELSQueues != nil {
		top := tb.PELSQueues.PELS.NumLayers() - 1
		for i := 0; i <= top; i++ {
			cur := tb.PELSQueues.PELS.Layer(i).Counters
			prev := tb.prevLayer[i]
			tb.prevLayer[i] = cur
			dArr := cur.Arrived - prev.Arrived
			dDrop := cur.Dropped - prev.Dropped
			tb.DropSeries[packet.LayerColor(i)].Add(now, float64(dDrop))
			if i == top && dArr > 0 {
				tb.RedLossSeries.Add(now, float64(dDrop)/float64(dArr))
			}
		}
		return
	}
	cur := tb.BEQueues.Video.Counters
	prev := tb.prevVideo
	tb.prevVideo = cur
	dArr := cur.Arrived - prev.Arrived
	dDrop := cur.Dropped - prev.Dropped
	if dArr > 0 {
		tb.RedLossSeries.Add(now, float64(dDrop)/float64(dArr))
	}
}

// Run starts all flows and executes the simulation for the given duration.
func (tb *Testbed) Run(duration time.Duration) error {
	for i, src := range tb.Sources {
		start := time.Duration(0)
		if i < len(tb.Cfg.StartTimes) {
			start = tb.Cfg.StartTimes[i]
		}
		src.Start(start)
	}
	for _, s := range tb.TCPSenders {
		s.Start(0)
	}
	for _, o := range tb.OnOffSources {
		o.Start(0)
	}
	if err := tb.Eng.RunUntil(duration); err != nil {
		return fmt.Errorf("experiments: run: %w", err)
	}
	return nil
}

// runTestbed builds the testbed for cfg, records its traces if asked, and
// runs it for duration: one independent simulation, the unit fanOut
// spreads over the cores.
func runTestbed(cfg TestbedConfig, duration time.Duration, traces bool) (*Testbed, error) {
	tb, err := NewTestbed(cfg)
	if err != nil {
		return nil, err
	}
	if traces {
		tb.RecordTraces()
	}
	return tb, tb.Run(duration)
}

// MeasuredPELSLoss returns the average feedback loss after warmup (clamped
// at zero — negative feedback means spare capacity, not loss).
func (tb *Testbed) MeasuredPELSLoss(warmup time.Duration) float64 {
	first, n := tb.FeedbackLoss.Search(warmup), tb.FeedbackLoss.Len()
	if first == n {
		return 0
	}
	sum := 0.0
	for it := tb.FeedbackLoss.Iter(first, n); it.Next(); {
		if v := it.Sample().Value; v > 0 {
			sum += v
		}
	}
	return sum / float64(n-first)
}

// StationaryRate returns the closed-form MKC equilibrium rate for this
// testbed (paper eq. 10).
func (tb *Testbed) StationaryRate() units.BitRate {
	m := tb.Cfg.Session.MKC
	if m == (cc.MKCConfig{}) {
		m = cc.DefaultMKCConfig()
	}
	return m.StationaryRate(tb.Cfg.PELSCapacity(), tb.Cfg.NumPELS)
}
