package experiments

import (
	"strings"
	"testing"
	"time"

	"repro/internal/units"
)

const sampleScenario = `{
  "name": "staircase",
  "seed": 7,
  "duration": "90s",
  "bottleneck_kbps": 3000,
  "pels_share": 0.6,
  "feedback_interval": "20ms",
  "pels_flows": 4,
  "start_times": ["0s", "0s", "30s", "30s"],
  "frame_interval": "250ms",
  "alpha_kbps": 40,
  "beta": 0.8,
  "sigma": 0.6,
  "p_thr": 0.8,
  "controller": "kelly",
  "tcp_flows": 1,
  "onoff_flows": 2,
  "onoff_pareto": 1.4
}`

func TestScenarioRoundTrip(t *testing.T) {
	s, err := LoadScenario(strings.NewReader(sampleScenario))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "staircase" || s.Seed != 7 {
		t.Errorf("header = %+v", s)
	}
	if s.RunDuration() != 90*time.Second {
		t.Errorf("duration = %v", s.RunDuration())
	}
	cfg, err := s.TestbedConfig()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.BottleneckRate != 3000*units.Kbps {
		t.Errorf("bottleneck = %v", cfg.BottleneckRate)
	}
	if got := cfg.PELSCapacity(); got != 1800*units.Kbps {
		t.Errorf("PELS capacity = %v, want 1800 kb/s", got)
	}
	if cfg.FeedbackInterval != 20*time.Millisecond {
		t.Errorf("T = %v", cfg.FeedbackInterval)
	}
	if cfg.NumPELS != 4 || len(cfg.StartTimes) != 4 || cfg.StartTimes[2] != 30*time.Second {
		t.Errorf("flows = %d, starts = %v", cfg.NumPELS, cfg.StartTimes)
	}
	if cfg.Session.FrameInterval != 250*time.Millisecond {
		t.Errorf("frame interval = %v", cfg.Session.FrameInterval)
	}
	eff := cfg.Session.WithDefaults()
	if eff.MKC.Alpha != 40*units.Kbps || eff.MKC.Beta != 0.8 {
		t.Errorf("mkc = %+v", eff.MKC)
	}
	if eff.Gamma.Sigma != 0.6 || eff.Gamma.PThr != 0.8 {
		t.Errorf("gamma = %+v", eff.Gamma)
	}
	if cfg.Session.ControllerFactory == nil {
		t.Error("controller factory not set for kelly")
	}
	if cfg.NumTCP != 1 || cfg.NumOnOff != 2 || cfg.OnOffPareto != 1.4 {
		t.Errorf("cross traffic = %d/%d/%v", cfg.NumTCP, cfg.NumOnOff, cfg.OnOffPareto)
	}
}

func TestScenarioDefaults(t *testing.T) {
	s, err := LoadScenario(strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := s.TestbedConfig()
	if err != nil {
		t.Fatal(err)
	}
	def := DefaultTestbedConfig()
	if cfg.BottleneckRate != def.BottleneckRate || cfg.NumPELS != def.NumPELS || cfg.NumTCP != def.NumTCP {
		t.Errorf("empty scenario deviates from defaults: %+v", cfg)
	}
	if s.RunDuration() != 60*time.Second {
		t.Errorf("default duration = %v", s.RunDuration())
	}
}

// TestScenarioZeroTCP: an explicit "tcp_flows": 0 means no TCP flows, not
// the default two; leaving it out keeps the default unless on-off flows
// take its place.
func TestScenarioZeroTCP(t *testing.T) {
	for body, want := range map[string]int{
		`{"pels_flows": 8, "tcp_flows": 0}`:  0,
		`{"pels_flows": 8}`:                  DefaultTestbedConfig().NumTCP,
		`{"onoff_flows": 2}`:                 0,
		`{"onoff_flows": 2, "tcp_flows": 3}`: 3,
	} {
		s, err := LoadScenario(strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := s.TestbedConfig()
		if err != nil {
			t.Fatal(err)
		}
		if cfg.NumTCP != want {
			t.Errorf("%s: %d TCP flows, want %d", body, cfg.NumTCP, want)
		}
	}
}

func TestScenarioErrors(t *testing.T) {
	cases := map[string]string{
		"unknown field":      `{"bogus": 1}`,
		"bad duration":       `{"duration": "soon"}`,
		"duration not str":   `{"duration": 90}`,
		"bad share":          `{"pels_share": 1.5}`,
		"negative flows":     `{"pels_flows": -2}`,
		"negative tcp flows": `{"tcp_flows": -1}`,
		"unknown controller": `{"controller": "warp"}`,
		"not json":           `{`,
	}
	for name, body := range cases {
		if _, err := LoadScenario(strings.NewReader(body)); err == nil {
			t.Errorf("LoadScenario(%s) succeeded, want error", name)
		}
	}
}

func TestScenarioRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack simulation")
	}
	s, err := LoadScenario(strings.NewReader(sampleScenario))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := s.TestbedConfig()
	if err != nil {
		t.Fatal(err)
	}
	tb, err := NewTestbed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Run(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	if tb.Sinks[0].Received().Datagrams == 0 {
		t.Error("scenario run delivered nothing")
	}
	if len(tb.OnOffSources) != 2 {
		t.Errorf("on-off sources = %d", len(tb.OnOffSources))
	}
}
