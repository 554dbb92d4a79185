// Package pels is the end-host side of Partitioned Enhancement Layer
// Streaming (paper §4-5) in the simulator. A Source is the netsim driver of
// a session.Session, the same end host the live server runs: it packetizes
// FGS video frames, colors each packet by its priority layer as the γ
// controller splits the frame, paces the packets at the rate its congestion
// controller (MKC by default) chooses, and reacts to router feedback carried
// back in ACKs. Every packet it emits is a wire datagram, decoded. A Sink is
// the netsim driver of the live receiver core (wire.RecvCore): it counts
// loss, reassembles frames and echoes feedback to the source.
//
// A Source runs in best-effort mode (the paper's §6.5 baseline) when its
// session config says so: the enhancement layer is left unmarked and the
// bottleneck drops it uniformly at random.
package pels

import (
	"fmt"
	"math"
	"time"

	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/session"
)

// Config parameterizes one streaming session (source + sink pair): the end
// host's session config, with the simulator's defaults, plus what only the
// simulator has.
type Config struct {
	// Config is the end host itself (session.Config), defaulted by
	// WithDefaults as the simulator runs it: the paper's CIF Foreman
	// frame (126×500 B, 21 green), a 500 ms frame interval — the full-rate
	// frame is then ~1 mb/s, the per-flow fair share of the paper's 2 mb/s
	// PELS capacity — an MKC minimum rate no lower than the base layer's,
	// and a bucket of one packet, so every packet is paced at the rate.
	session.Config
	// Flow is the flow identifier shared by data and ACK packets; it
	// travels the wire, so it must fit a uint32.
	Flow int
	// RateSeries, if non-nil, records every accepted rate update (kb/s)
	// at simulation time. It normally comes from an obs.Registry shared
	// by the experiment. The γ history is opt-in after construction:
	// Source.RecordGamma.
	RateSeries *obs.Series
}

// WithDefaults returns the configuration with every zero field replaced by
// the paper's default value. Experiments use it to read the effective
// parameters of a session built from a partial config.
func (c Config) WithDefaults() Config {
	if c.FrameInterval <= 0 {
		c.FrameInterval = 500 * time.Millisecond
	}
	burst := c.BurstBytes
	c.Config = c.Config.WithDefaults()
	if burst <= 0 {
		c.BurstBytes = c.Frame.PacketSize
	}
	if base := c.Frame.BaseRate(c.FrameInterval); c.MKC.MinRate < base {
		// Below the base-layer rate no meaningful streaming is possible
		// (paper §4.2: green loss means the session cannot continue), so
		// the controller never requests less.
		c.MKC.MinRate = base
	}
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Flow < 0 || uint64(c.Flow) > math.MaxUint32 {
		return fmt.Errorf("pels: flow %d does not fit the wire's uint32", c.Flow)
	}
	return c.WithDefaults().Config.Validate()
}

// Session wires a Source on srcHost to a Sink on dstHost and returns both.
// It is the simplest way to set up a streaming pair; experiments that need
// asymmetric setups can construct the two halves directly.
func Session(net *netsim.Network, srcHost, dstHost *netsim.Host, cfg Config) (*Source, *Sink, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	sink, err := NewSink(net, dstHost, cfg)
	if err != nil {
		return nil, nil, err
	}
	src, err := NewSource(net, srcHost, dstHost.ID(), cfg)
	if err != nil {
		return nil, nil, err
	}
	return src, sink, nil
}
