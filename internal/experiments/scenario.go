package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/cc"
	"repro/internal/fgs"
	"repro/internal/units"
)

// Scenario is a declarative description of one testbed run, loadable from
// JSON (ns2 users write Tcl scenario scripts; this is the equivalent for
// pelssim, whose flags fill one too). Zero fields fall back to the paper's
// defaults; TCPFlows, where 0 is a choice, falls back only when absent.
type Scenario struct {
	Name string `json:"name,omitempty"`
	Seed int64  `json:"seed,omitempty"`
	// Duration of the run, e.g. "120s".
	Duration jsonDuration `json:"duration,omitempty"`

	// Topology.
	BottleneckKbps  float64      `json:"bottleneck_kbps,omitempty"`
	AccessKbps      float64      `json:"access_kbps,omitempty"`
	PELSShare       float64      `json:"pels_share,omitempty"`
	AccessDelay     jsonDuration `json:"access_delay,omitempty"`
	BottleneckDelay jsonDuration `json:"bottleneck_delay,omitempty"`

	// Router.
	FeedbackInterval jsonDuration `json:"feedback_interval,omitempty"`
	GreenLimit       int          `json:"green_limit,omitempty"`
	YellowLimit      int          `json:"yellow_limit,omitempty"`
	RedLimit         int          `json:"red_limit,omitempty"`

	// Video flows.
	PELSFlows     int            `json:"pels_flows,omitempty"`
	StartTimes    []jsonDuration `json:"start_times,omitempty"`
	AccessDelays  []jsonDuration `json:"access_delays,omitempty"`
	FrameInterval jsonDuration   `json:"frame_interval,omitempty"`
	AlphaKbps     float64        `json:"alpha_kbps,omitempty"`
	Beta          float64        `json:"beta,omitempty"`
	Sigma         float64        `json:"sigma,omitempty"`
	PThr          float64        `json:"p_thr,omitempty"`
	// Controller: "mkc" (default), "kelly", "aimd", "tfrc", "iiad", "sqrt".
	Controller string `json:"controller,omitempty"`

	// Cross traffic. Without tcp_flows, a run has the default TCP flows
	// unless it asks for on-off flows.
	TCPFlows    *int    `json:"tcp_flows,omitempty"`
	OnOffFlows  int     `json:"onoff_flows,omitempty"`
	OnOffPareto float64 `json:"onoff_pareto,omitempty"`

	// Mode.
	BestEffort bool `json:"best_effort,omitempty"`
}

// jsonDuration parses "30ms"-style strings.
type jsonDuration time.Duration

// UnmarshalJSON implements json.Unmarshaler.
func (d *jsonDuration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("duration must be a string like \"30ms\": %w", err)
	}
	if err := d.Set(s); err != nil {
		return fmt.Errorf("parse duration %q: %w", s, err)
	}
	return nil
}

// Set implements flag.Value.
func (d *jsonDuration) Set(s string) error {
	parsed, err := time.ParseDuration(s)
	*d = jsonDuration(parsed)
	return err
}

// String implements flag.Value.
func (d jsonDuration) String() string { return time.Duration(d).String() }

// LoadScenario reads a scenario from JSON.
func LoadScenario(r io.Reader) (*Scenario, error) {
	var s Scenario
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("experiments: decode scenario: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadScenarioFile reads a scenario from a JSON file.
func LoadScenarioFile(path string) (*Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("experiments: open scenario: %w", err)
	}
	defer f.Close()
	return LoadScenario(f)
}

// Validate reports semantic errors.
func (s *Scenario) Validate() error {
	if s.PELSShare < 0 || s.PELSShare > 1 {
		return fmt.Errorf("experiments: pels_share %v outside [0,1]", s.PELSShare)
	}
	if s.BottleneckKbps < 0 || s.AccessKbps < 0 || s.AlphaKbps < 0 {
		return fmt.Errorf("experiments: rates must be non-negative")
	}
	if s.PELSFlows < 0 || s.TCPFlows != nil && *s.TCPFlows < 0 || s.OnOffFlows < 0 {
		return fmt.Errorf("experiments: flow counts must be non-negative")
	}
	if _, ok := controllerFactory(s.Controller); !ok {
		return fmt.Errorf("experiments: unknown controller %q", s.Controller)
	}
	return nil
}

// RunDuration returns the configured duration (default 60 s).
func (s *Scenario) RunDuration() time.Duration {
	if s.Duration <= 0 {
		return 60 * time.Second
	}
	return time.Duration(s.Duration)
}

// TestbedConfig converts the scenario into a runnable configuration.
func (s *Scenario) TestbedConfig() (TestbedConfig, error) {
	if err := s.Validate(); err != nil {
		return TestbedConfig{}, err
	}
	cfg := DefaultTestbedConfig()
	if s.Seed != 0 {
		cfg.Seed = s.Seed
	}
	if s.BottleneckKbps > 0 {
		cfg.BottleneckRate = units.BitRate(s.BottleneckKbps) * units.Kbps
	}
	if s.AccessKbps > 0 {
		cfg.AccessRate = units.BitRate(s.AccessKbps) * units.Kbps
	}
	if s.PELSShare > 0 {
		cfg.Bottleneck.PELSWeight = s.PELSShare
		cfg.Bottleneck.InternetWeight = 1 - s.PELSShare
	}
	if s.AccessDelay > 0 {
		cfg.AccessDelay = time.Duration(s.AccessDelay)
	}
	if s.BottleneckDelay > 0 {
		cfg.BottleneckDelay = time.Duration(s.BottleneckDelay)
	}
	if s.FeedbackInterval > 0 {
		cfg.FeedbackInterval = time.Duration(s.FeedbackInterval)
	}
	if s.GreenLimit > 0 {
		cfg.Bottleneck.Priority.GreenLimit = s.GreenLimit
	}
	if s.YellowLimit > 0 {
		cfg.Bottleneck.Priority.YellowLimit = s.YellowLimit
	}
	if s.RedLimit > 0 {
		cfg.Bottleneck.Priority.RedLimit = s.RedLimit
	}
	if s.PELSFlows > 0 {
		cfg.NumPELS = s.PELSFlows
	}
	for _, st := range s.StartTimes {
		cfg.StartTimes = append(cfg.StartTimes, time.Duration(st))
	}
	for _, d := range s.AccessDelays {
		cfg.AccessDelays = append(cfg.AccessDelays, time.Duration(d))
	}
	if s.FrameInterval > 0 {
		cfg.Session.FrameInterval = time.Duration(s.FrameInterval)
	}
	if s.AlphaKbps > 0 || s.Beta > 0 {
		mkc := cfg.Session.WithDefaults().MKC
		if s.AlphaKbps > 0 {
			mkc.Alpha = units.BitRate(s.AlphaKbps) * units.Kbps
		}
		if s.Beta > 0 {
			mkc.Beta = s.Beta
		}
		cfg.Session.MKC = mkc
	}
	if s.Sigma > 0 || s.PThr > 0 {
		gamma := fgs.DefaultGammaConfig()
		if s.Sigma > 0 {
			gamma.Sigma = s.Sigma
		}
		if s.PThr > 0 {
			gamma.PThr = s.PThr
		}
		cfg.Session.Gamma = gamma
	}
	cfg.Session.ControllerFactory, _ = controllerFactory(s.Controller)
	switch {
	case s.TCPFlows != nil:
		cfg.NumTCP = *s.TCPFlows
	case s.OnOffFlows > 0:
		cfg.NumTCP = 0
	}
	cfg.NumOnOff = s.OnOffFlows
	cfg.OnOffPareto = s.OnOffPareto
	cfg.BestEffort = s.BestEffort
	return cfg, nil
}

// ccTable is the one map from a controller name to its constructor, in
// the order the controllers experiment prints them. MKC's nil constructor
// keeps the session default.
var ccTable = []struct {
	name string
	mk   func() cc.Controller
}{
	{"mkc", nil},
	{"kelly", func() cc.Controller { return cc.NewKelly() }},
	{"aimd", func() cc.Controller { return cc.NewAIMD() }},
	{"tfrc", func() cc.Controller { return cc.NewTFRC() }},
	{"iiad", func() cc.Controller { return cc.NewBinomial(cc.IIADConfig()) }},
	{"sqrt", func() cc.Controller { return cc.NewBinomial(cc.SQRTConfig()) }},
}

// controllerFactory returns the constructor registered under name (nil,
// the default MKC, for "" and "mkc"); ok is false for an unknown name.
func controllerFactory(name string) (mk func() cc.Controller, ok bool) {
	for _, c := range ccTable {
		if c.name == name {
			return c.mk, true
		}
	}
	return nil, name == ""
}
