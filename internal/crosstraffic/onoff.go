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

// The on-off source's constants: a 2 mb/s source with 500 ms mean periods.
const (
	onRate     = 2 * units.Mbps
	packetSize = 1000 // bytes
	meanOn     = 500 * time.Millisecond
	meanOff    = 500 * time.Millisecond
)

// OnOff is the generator. It sends fixed-size packets at onRate during ON
// periods and is silent during OFF periods. ON periods are exponential, or
// Pareto when paretoShape > 1 (heavy-tailed bursts, self-similar aggregate
// load); OFF periods are exponential.
type OnOff struct {
	flow        int
	paretoShape float64
	eng         *sim.Engine
	net         *netsim.Network
	host        *netsim.Host
	dst         int

	on   bool
	pace *sim.Timer // fires emit for the next packet of an ON period
}

// NewOnOff creates a generator for the flow on host targeting the node dst.
func NewOnOff(net *netsim.Network, host *netsim.Host, dst, flow int, paretoShape float64) *OnOff {
	o := &OnOff{flow: flow, paretoShape: paretoShape, eng: net.Engine(), net: net, host: host, dst: dst}
	o.pace = o.eng.NewTimer(o.emit)
	return o
}

// Start begins the on/off cycle at the given simulation time (first period
// is ON).
func (o *OnOff) Start(at time.Duration) {
	o.eng.AtFunc(at, o.beginOn)
}

func (o *OnOff) beginOn() {
	o.on = true
	o.emit()
	o.eng.ScheduleFunc(o.onDuration(), o.beginOff)
}

func (o *OnOff) beginOff() {
	o.on = false
	o.pace.Stop()
	gap := time.Duration(o.eng.Rand().ExpFloat64() * float64(meanOff))
	o.eng.ScheduleFunc(gap, o.beginOn)
}

func (o *OnOff) onDuration() time.Duration {
	if o.paretoShape > 1 {
		// Pareto with mean meanOn: scale = mean·(shape−1)/shape.
		shape := o.paretoShape
		scale := float64(meanOn) * (shape - 1) / shape
		u := o.eng.Rand().Float64()
		if u <= 0 {
			u = 1e-12
		}
		return time.Duration(scale / math.Pow(u, 1/shape))
	}
	return time.Duration(o.eng.Rand().ExpFloat64() * float64(meanOn))
}

func (o *OnOff) emit() {
	if !o.on {
		return
	}
	o.host.Send(o.net.NewPacket(o.flow, o.dst, packetSize, packet.TCP))
	o.pace.Reset(onRate.TransmissionTime(packetSize))
}
