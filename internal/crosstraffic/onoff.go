// Package crosstraffic provides background-load generators for the
// Internet queue beyond greedy TCP: the classic exponential and Pareto
// on-off sources used throughout the queueing literature. Bursty
// non-responsive load stresses the WRR isolation differently from TCP —
// during OFF periods the work-conserving scheduler lends the idle share to
// PELS, and ON bursts take it back abruptly.
package crosstraffic

import (
	"math"
	"time"

	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/units"
)

// OnOffConfig parameterizes an on-off constant-bit-rate source.
type OnOffConfig struct {
	// Flow identifies the stream.
	Flow int
	// Rate is the sending rate during ON periods.
	Rate units.BitRate
	// PacketSize in bytes.
	PacketSize int
	// MeanOn and MeanOff are the mean period durations. Periods are
	// exponential unless ParetoShape is set.
	MeanOn, MeanOff time.Duration
	// ParetoShape, if > 1, draws ON periods from a Pareto distribution
	// with this shape (heavy-tailed bursts, self-similar aggregate load).
	// OFF periods stay exponential.
	ParetoShape float64
}

// DefaultOnOffConfig returns a 2 mb/s source with 500 ms mean periods.
func DefaultOnOffConfig(flow int) OnOffConfig {
	return OnOffConfig{
		Flow:       flow,
		Rate:       2 * units.Mbps,
		PacketSize: 1000,
		MeanOn:     500 * time.Millisecond,
		MeanOff:    500 * time.Millisecond,
	}
}

// OnOff is the generator. It sends fixed-size packets at the configured
// rate during ON periods and is silent during OFF periods.
type OnOff struct {
	cfg  OnOffConfig
	eng  *sim.Engine
	net  *netsim.Network
	host *netsim.Host
	dst  int

	on      bool
	stopped bool
	pace    *sim.Timer // fires emit for the next packet of an ON period

	pktsSent  int64
	bytesSent int64
	onPeriods int64
}

// NewOnOff creates a generator on host targeting the node dst.
func NewOnOff(net *netsim.Network, host *netsim.Host, dst int, cfg OnOffConfig) *OnOff {
	if cfg.PacketSize <= 0 {
		cfg.PacketSize = 1000
	}
	if cfg.Rate <= 0 {
		cfg.Rate = units.Mbps
	}
	if cfg.MeanOn <= 0 {
		cfg.MeanOn = 500 * time.Millisecond
	}
	if cfg.MeanOff <= 0 {
		cfg.MeanOff = 500 * time.Millisecond
	}
	o := &OnOff{cfg: cfg, eng: net.Engine(), net: net, host: host, dst: dst}
	o.pace = o.eng.NewTimer(o.emit)
	return o
}

// Start begins the on/off cycle at the given simulation time (first period
// is ON).
func (o *OnOff) Start(at time.Duration) {
	o.eng.At(at, func() {
		if o.stopped {
			return
		}
		o.beginOn()
	})
}

// Stop silences the generator permanently.
func (o *OnOff) Stop() {
	o.stopped = true
	o.pace.Stop()
}

func (o *OnOff) beginOn() {
	if o.stopped {
		return
	}
	o.on = true
	o.onPeriods++
	o.emit()
	o.eng.Schedule(o.onDuration(), o.beginOff)
}

func (o *OnOff) beginOff() {
	if o.stopped {
		return
	}
	o.on = false
	o.pace.Stop()
	gap := time.Duration(o.eng.Rand().ExpFloat64() * float64(o.cfg.MeanOff))
	o.eng.Schedule(gap, o.beginOn)
}

func (o *OnOff) onDuration() time.Duration {
	if o.cfg.ParetoShape > 1 {
		// Pareto with mean MeanOn: scale = mean·(shape−1)/shape.
		shape := o.cfg.ParetoShape
		scale := float64(o.cfg.MeanOn) * (shape - 1) / shape
		u := o.eng.Rand().Float64()
		if u <= 0 {
			u = 1e-12
		}
		return time.Duration(scale / math.Pow(u, 1/shape))
	}
	return time.Duration(o.eng.Rand().ExpFloat64() * float64(o.cfg.MeanOn))
}

func (o *OnOff) emit() {
	if o.stopped || !o.on {
		return
	}
	p := o.net.NewPacket(o.cfg.Flow, o.dst, o.cfg.PacketSize, packet.TCP)
	o.pktsSent++
	o.bytesSent += int64(p.Size)
	o.host.Send(p)
	o.pace.Reset(o.cfg.Rate.TransmissionTime(o.cfg.PacketSize))
}

// PacketsSent returns the number of packets emitted.
func (o *OnOff) PacketsSent() int64 { return o.pktsSent }

// BytesSent returns the number of bytes emitted.
func (o *OnOff) BytesSent() int64 { return o.bytesSent }

// OnPeriods returns the number of ON periods begun.
func (o *OnOff) OnPeriods() int64 { return o.onPeriods }

// On reports whether the generator is currently in an ON period.
func (o *OnOff) On() bool { return o.on }
