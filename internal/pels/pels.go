// Package pels is the core library of this reproduction: the end-host side
// of Partitioned Enhancement Layer Streaming (paper §4-5). A Source
// packetizes FGS video frames, colors packets green/yellow/red according to
// the γ controller, paces them onto the network at the rate chosen by its
// congestion controller (MKC by default), and reacts to router feedback
// carried back in ACKs. A Sink reassembles frames, computes useful-prefix
// statistics, and echoes feedback to the source.
//
// The same Source can run in best-effort mode (the paper's §6.5 baseline),
// where the enhancement layer is left unmarked and the bottleneck drops it
// uniformly at random.
package pels

import (
	"fmt"
	"time"

	"repro/internal/cc"
	"repro/internal/fgs"
	"repro/internal/netsim"
	"repro/internal/obs"
)

// Mode selects how a source marks its enhancement-layer packets.
type Mode int

const (
	// ModePELS colors the enhancement prefix yellow/red per γ (paper §4.2).
	ModePELS Mode = iota + 1
	// ModeBestEffort leaves the enhancement layer unmarked (best-effort),
	// reproducing the baseline of §6.5. The base layer stays green: the
	// paper's baseline "magically" protects it.
	ModeBestEffort
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case ModePELS:
		return "pels"
	case ModeBestEffort:
		return "best-effort"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Config parameterizes one streaming session (source + sink pair).
type Config struct {
	// Flow is the flow identifier shared by data and ACK packets.
	Flow int
	// Mode selects PELS or best-effort marking; zero means ModePELS.
	Mode Mode
	// Frame describes the packetization; zero value means the paper's
	// CIF Foreman numbers (126×500 B, 21 green).
	Frame fgs.FrameSpec
	// FrameInterval is the inter-frame spacing. The repository default
	// (500 ms) makes the full-rate frame correspond to ~1 mb/s, matching
	// the per-flow fair share of the paper's 2 mb/s PELS capacity.
	FrameInterval time.Duration
	// MKC parameterizes the rate controller; zero value means the paper's
	// parameters (α=20 kb/s, β=0.5, r₀=128 kb/s).
	MKC cc.MKCConfig
	// Gamma parameterizes the red-fraction controller; zero value means
	// the paper's parameters (σ=0.5, p_thr=0.75, γ₀=0.5, γ_low=0.05).
	Gamma fgs.GammaConfig
	// ControllerFactory, when set, builds each source's rate controller in
	// place of MKC (e.g. cc.AIMD); the MKC field is then ignored. PELS is
	// explicitly independent of the congestion controller (paper §5). A
	// factory rather than an instance, so one Config can parameterize many
	// flows.
	ControllerFactory func() cc.Controller
	// RedShare selects the denominator γ applies to when sizing the red
	// segment (default fgs.RedShareTotal; see that type's documentation).
	RedShare fgs.RedShare
	// Layers is the number of priority layers the source splits each
	// frame into, in [2, packet.MaxLayers]; 0 selects 3, the paper's
	// green/yellow/red. Every frame is split with the default γ ladder
	// (fgs.Ladder): N−1 cumulative split points interpolated from 1 down to
	// the controller's γ, so the single-γ controller steers the whole
	// ladder, and for 3 layers the split is exactly the paper's. The
	// bottleneck must be configured with a matching layer count
	// (queue.NLayerPriorityConfig).
	Layers int
	// NewScaler builds each source's frame scaler, which decides each
	// frame's byte budget from the controller rate. Scalers are stateful,
	// so flows cannot share one. Nil means fgs.ConstantScaler (the paper's
	// x_i = r·interval); fgs.RDScaler implements the complexity-aware
	// allocation the paper cites as a quality-smoothing extension.
	NewScaler func() fgs.Scaler
	// RateSeries, if non-nil, records every accepted rate update (kb/s)
	// at simulation time. It replaces the former OnRate callback and
	// normally comes from an obs.Registry shared by the experiment. The γ
	// history is opt-in after construction: Source.RecordGamma.
	RateSeries *obs.Series
}

// WithDefaults returns the configuration with every zero field replaced by
// the paper's default value. Experiments use it to read the effective
// parameters of a session built from a partial config.
func (c Config) WithDefaults() Config {
	if c.Mode == 0 {
		c.Mode = ModePELS
	}
	if c.FrameInterval <= 0 {
		c.FrameInterval = 500 * time.Millisecond
	}
	sc := c.sender().WithDefaults()
	c.Frame, c.Gamma, c.RedShare, c.Layers = sc.Frame, sc.Gamma, sc.RedShare, sc.Layers
	c.MKC = sc.MKC(c.MKC)
	if c.MKC.MinRate < c.Frame.BaseRate(c.FrameInterval) {
		// Below the base-layer rate no meaningful streaming is possible
		// (paper §4.2: green loss means the session cannot continue), so
		// the controller never requests less.
		c.MKC.MinRate = c.Frame.BaseRate(c.FrameInterval)
	}
	return c
}

// sender returns the part of the config the source's fgs.Sender plans with.
func (c Config) sender() fgs.SenderConfig {
	return fgs.SenderConfig{Frame: c.Frame, FrameInterval: c.FrameInterval, Gamma: c.Gamma,
		RedShare: c.RedShare, Layers: c.Layers, NewScaler: c.NewScaler}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	c = c.WithDefaults()
	if c.Mode != ModePELS && c.Mode != ModeBestEffort {
		return fmt.Errorf("pels: unknown mode %d", int(c.Mode))
	}
	return c.sender().Validate()
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
