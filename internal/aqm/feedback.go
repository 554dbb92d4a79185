// Package aqm implements the router-side machinery of the PELS framework in
// the simulator: the fixed-tick driver of the router core packet.Meter
// (paper eq. 11), epoch-numbered feedback stamping into passing packets
// (paper §5.2), and assembly of the PELS queue structure (strict-priority
// color queues + Internet FIFO under WRR, paper Fig. 4 left). A best-effort
// variant used as the paper's baseline (§6.5) is also provided.
package aqm

import (
	"time"

	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/units"
)

// FeedbackConfig parameterizes the per-router feedback computation.
type FeedbackConfig struct {
	// RouterID identifies this router in feedback labels.
	RouterID int
	// Interval is T, the measurement period (paper uses 30 ms).
	Interval time.Duration
	// Capacity is C, the capacity available to PELS traffic — the WRR
	// share of the outgoing link, not the raw link rate.
	Capacity units.BitRate
	// Obs, if non-nil, receives the router's per-interval series
	// (Prefix+"feedback_loss", Prefix+"feedback_rate_kbps") and epoch
	// counter, timestamped with simulation time.
	Obs *obs.Registry
	// Prefix namespaces the metric names, for topologies that register
	// several feedback routers in one registry.
	Prefix string
	// StampBestEffort extends feedback stamping to best-effort-colored
	// packets, used by the baseline streaming scheme.
	StampBestEffort bool
	// GreenOnly restricts stamping to green packets. The paper argues
	// (§5.1) this adds feedback latency; it exists for the ablation bench.
	GreenOnly bool
}

// Feedback is the simulator's driver of the router core packet.Meter
// (paper eq. 11 and §5.2): a sim.Ticker closes a window every T, and passing
// PELS packets are stamped with (routerID, z, p) under the max-loss
// override. It implements netsim.Processor.
type Feedback struct {
	cfg    FeedbackConfig
	eng    *sim.Engine
	ticker *sim.Ticker
	meter  packet.Meter

	lossSeries *obs.Series
	rateSeries *obs.Series
	epochs     *obs.Counter
}

var _ netsim.Processor = (*Feedback)(nil)

// NewFeedback creates the processor and starts its measurement ticker. It
// panics unless Interval and Capacity are positive.
func NewFeedback(eng *sim.Engine, cfg FeedbackConfig) *Feedback {
	f := &Feedback{cfg: cfg, eng: eng, meter: packet.NewMeter(cfg.Interval, cfg.Capacity)}
	if cfg.Obs != nil {
		f.lossSeries = cfg.Obs.Series(cfg.Prefix + "feedback_loss")
		f.rateSeries = cfg.Obs.Series(cfg.Prefix + "feedback_rate_kbps")
		f.epochs = cfg.Obs.Counter(cfg.Prefix + "feedback_epochs")
	}
	f.ticker = sim.NewTicker(eng, cfg.Interval, f.compute)
	f.ticker.Start()
	return f
}

// Process implements netsim.Processor: it counts PELS arrivals (and
// best-effort ones under StampBestEffort) toward S and stamps the current
// feedback label into their headers, into green ones only under GreenOnly.
//
//pelsvet:noalloc
func (f *Feedback) Process(p *packet.Packet) {
	stamp := p.Color.IsPELS() || (f.cfg.StampBestEffort && p.Color == packet.BestEffort)
	if stamp {
		f.meter.Add(p.Size)
	}
	if f.cfg.GreenOnly {
		stamp = p.Color == packet.Green
	}
	if stamp {
		p.Feedback = p.Feedback.Merge(f.cfg.RouterID, f.meter.Epoch(), f.meter.Loss())
	}
}

// compute closes the window at each tick: the fixed T is its length.
func (f *Feedback) compute() {
	rate := f.meter.Close(f.cfg.Interval)
	if f.epochs != nil {
		f.epochs.Inc()
		now := f.eng.Now()
		f.lossSeries.Add(now, f.meter.Loss())
		f.rateSeries.Add(now, rate.KbpsValue())
	}
}

// SetCapacity changes the capacity C used in subsequent loss computations.
// Experiments use it to model WRR reconfiguration or a higher-priority
// aggregate claiming part of the PELS share (bottleneck shifts, §5.2).
func (f *Feedback) SetCapacity(c units.BitRate) { f.meter.SetCapacity(c) }

// Loss returns the most recently computed loss p(k).
func (f *Feedback) Loss() float64 { return f.meter.Loss() }

// Stop halts the measurement ticker.
func (f *Feedback) Stop() { f.ticker.Stop() }
