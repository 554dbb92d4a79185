package fgs

import "fmt"

// GammaConfig parameterizes the red-fraction controller of paper eq. (4):
//
//	γ(k) = γ(k−1) + σ·(p(k−1)/p_thr − γ(k−1))
//
// which converges red packet loss to the target p_thr for any stationary
// loss p (paper Lemma 4) and is stable iff 0 < σ < 2 (Lemmas 2-3).
type GammaConfig struct {
	// Sigma is the controller gain σ.
	Sigma float64
	// PThr is the target red packet loss p_thr (paper uses 0.75).
	PThr float64
	// Initial is γ(0) (paper uses 0.5).
	Initial float64
	// Min and Max clamp γ. The paper's simulations use γ_low = 0.05 so
	// flows keep probing with a trickle of red packets even at zero loss;
	// Max defaults to 1.
	Min float64
	Max float64
	// Clamp enables the [Min,Max] bounds. Disable only for open-loop
	// stability analysis (Fig. 5), where divergence must be observable.
	Clamp bool
	// AllowUnstable opts out of the 0 < σ < 2 stability check. σ=0
	// freezes the controller and σ≥2 diverges (Lemmas 2-3), so Validate
	// rejects both unless this is set — reserve it for the open-loop
	// Fig. 5 analysis path and frozen-γ ablations.
	AllowUnstable bool
}

// DefaultGammaConfig returns the paper's controller parameters
// (σ=0.5, p_thr=0.75, γ(0)=0.5, γ_low=0.05).
func DefaultGammaConfig() GammaConfig {
	return GammaConfig{
		Sigma:   0.5,
		PThr:    0.75,
		Initial: 0.5,
		Min:     0.05,
		Max:     1,
		Clamp:   true,
	}
}

// Validate reports configuration errors. The controller gain must satisfy
// the stability bound 0 < σ < 2 of paper Lemmas 2-3 unless AllowUnstable
// is set.
func (c GammaConfig) Validate() error {
	if !c.AllowUnstable && (c.Sigma <= 0 || c.Sigma >= 2) {
		return fmt.Errorf("fgs: sigma must be in (0,2) for stability, got %v (set AllowUnstable for open-loop analysis)", c.Sigma)
	}
	if c.PThr <= 0 || c.PThr > 1 {
		return fmt.Errorf("fgs: p_thr must be in (0,1], got %v", c.PThr)
	}
	if c.Clamp && (c.Min < 0 || c.Max > 1 || c.Min > c.Max) {
		return fmt.Errorf("fgs: gamma bounds [%v,%v] invalid", c.Min, c.Max)
	}
	return nil
}

// Gamma is the proportional controller that adapts the red fraction of
// each transmitted FGS frame to the measured packet loss.
type Gamma struct {
	cfg   GammaConfig
	value float64
}

// NewGamma returns a controller at γ(0) = cfg.Initial.
func NewGamma(cfg GammaConfig) (*Gamma, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := &Gamma{cfg: cfg, value: cfg.Initial}
	g.value = g.clamp(g.value)
	return g, nil
}

// MustNewGamma is NewGamma that panics on invalid configuration.
func MustNewGamma(cfg GammaConfig) *Gamma {
	g, err := NewGamma(cfg)
	if err != nil {
		panic(err)
	}
	return g
}

// Update applies one controller step with measured FGS-layer loss p and
// returns the new γ. Negative p (spare capacity feedback) is treated as
// zero loss: γ decays toward its lower bound, as in Fig. 7 (left) before
// congestion begins.
func (g *Gamma) Update(p float64) float64 {
	if p < 0 {
		p = 0
	}
	g.value += g.cfg.Sigma * (p/g.cfg.PThr - g.value)
	g.value = g.clamp(g.value)
	return g.value
}

// Value returns the current γ.
func (g *Gamma) Value() float64 { return g.value }

// Reset returns γ to its initial value. Senders
// call it on a feedback discontinuity — a RouterID change after a route
// change or gateway swap — because the loss history γ integrated belongs
// to a queue the flow no longer traverses; acting on cross-router deltas
// would start the new path with a red fraction tuned for the old one.
func (g *Gamma) Reset() {
	g.value = g.clamp(g.cfg.Initial)
}

func (g *Gamma) clamp(v float64) float64 {
	if !g.cfg.Clamp {
		return v
	}
	if v < g.cfg.Min {
		return g.cfg.Min
	}
	if v > g.cfg.Max {
		return g.cfg.Max
	}
	return v
}
