package experiments

import (
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/stats"
)

// Artifact is a named bundle of time series an experiment exports for
// CSV plotting (the files pelsbench -csv writes).
type Artifact struct {
	// Name is the file name, e.g. "fig7_n4.csv".
	Name string
	// Series are the columns; the first series provides the time column.
	Series []*stats.TimeSeries
}

// Result is the uniform outcome of one registry experiment run.
type Result struct {
	// Output is the formatted, human-readable summary (what pelsbench
	// prints under the section header).
	Output string
	// Artifacts are the CSV exports, if any.
	Artifacts []Artifact
	// Events is the total number of simulator events processed across
	// the testbeds the experiment ran (0 for closed-form experiments).
	// Wall-clock experiments (wire-loopback) report datagram counts here.
	Events uint64
	// Metrics are named scalar outcomes surfaced through pelsbench
	// -json (goodput, per-color loss, …). Nil for experiments whose
	// results live in Output text alone.
	Metrics map[string]float64
	// Obs, if non-nil, is the experiment's full metric registry.
	// pelsbench merges its flat snapshot into Metrics (explicit Metrics
	// keys win) and can export every recorded series to CSV. For
	// experiments that run several testbeds, it is the last run's
	// registry.
	Obs *obs.Registry
}

// Entry is one registered experiment: a stable name, a human title for
// section headers, and a seed-parameterized run function.
type Entry struct {
	// Name is the stable identifier used by pelsbench -only.
	Name string
	// Title is the section header printed above the output.
	Title string
	// Run executes the experiment with the given seed. Run functions are
	// self-contained (each builds its own engines), so distinct entries
	// and distinct seeds may run concurrently.
	Run func(seed int64) (Result, error)
}

// Registry returns every experiment in canonical (paper) order. The
// returned slice is freshly allocated; callers may reorder or filter it.
func Registry() []Entry {
	return []Entry{
		{
			Name:  "table1",
			Title: "Table 1 — expected number of useful packets",
			Run: func(seed int64) (Result, error) {
				cfg := DefaultTable1Config()
				cfg.Seed = seed
				return Result{Output: FormatTable1(Table1(cfg))}, nil
			},
		},
		{
			Name:  "fig2",
			Title: "Figure 2 — useful packets and utility vs frame size H",
			Run: func(seed int64) (Result, error) {
				cfg := DefaultFigure2Config()
				return Result{Output: FormatFigure2(cfg, Figure2(cfg))}, nil
			},
		},
		{
			Name:  "fig3",
			Title: "Figure 3 — random vs ideal drop pattern in one frame",
			Run: func(seed int64) (Result, error) {
				return Result{Output: FormatFigure3(Figure3(100, 0.1, seed))}, nil
			},
		},
		{
			Name:  "fig5",
			Title: "Figure 5 — gamma controller stability (sigma=0.5 vs sigma=3)",
			Run: func(seed int64) (Result, error) {
				return Result{Output: FormatFigure5(Figure5(DefaultFigure5Config()))}, nil
			},
		},
		{
			Name:  "fig7",
			Title: "Figure 7 — gamma evolution and red loss convergence",
			Run: func(seed int64) (Result, error) {
				cfg := DefaultFigure7Config()
				cfg.Seed = seed
				runs, err := Figure7(cfg)
				if err != nil {
					return Result{}, err
				}
				res := Result{Output: FormatFigure7(runs)}
				for _, r := range runs {
					res.Events += r.Events
					res.Obs = r.Obs
					res.Artifacts = append(res.Artifacts, Artifact{
						Name:   fmt.Sprintf("fig7_n%d.csv", r.NumFlows),
						Series: []*stats.TimeSeries{r.Gamma, r.RedLoss},
					})
				}
				return res, nil
			},
		},
		{
			Name:  "fig8",
			Title: "Figure 8 / Figure 9 (left) — per-color queueing delays",
			Run: func(seed int64) (Result, error) {
				cfg := DefaultFigure8Config()
				cfg.Seed = seed
				res, err := Figure8(cfg)
				if err != nil {
					return Result{}, err
				}
				return Result{
					Output: FormatFigure8(res),
					Events: res.Events,
					Obs:    res.Obs,
					Artifacts: []Artifact{{
						Name:   "fig8_delays.csv",
						Series: []*stats.TimeSeries{res.Green, res.Yellow, res.Red},
					}},
				}, nil
			},
		},
		{
			Name:  "fig9",
			Title: "Figure 9 (right) — MKC convergence and fairness",
			Run: func(seed int64) (Result, error) {
				cfg := DefaultFigure9Config()
				cfg.Seed = seed
				res, err := Figure9(cfg)
				if err != nil {
					return Result{}, err
				}
				return Result{
					Output:    FormatFigure9(res),
					Events:    res.Events,
					Obs:       res.Obs,
					Artifacts: []Artifact{{Name: "fig9_rates.csv", Series: res.Rates}},
				}, nil
			},
		},
		{
			Name:  "fig10",
			Title: "Figure 10 — PSNR of reconstructed Foreman (PELS vs best-effort)",
			Run: func(seed int64) (Result, error) {
				cfg := DefaultFigure10Config()
				cfg.Seed = seed
				runs, err := Figure10(cfg)
				if err != nil {
					return Result{}, err
				}
				res := Result{Output: FormatFigure10(runs)}
				for _, r := range runs {
					res.Events += r.Events
					res.Artifacts = append(res.Artifacts, Artifact{
						Name:   fmt.Sprintf("fig10_n%d.csv", r.NumFlows),
						Series: psnrSeries(r),
					})
				}
				return res, nil
			},
		},
		{
			Name:  "ablations",
			Title: "Ablations — design-choice variants (DESIGN.md §6)",
			Run: func(seed int64) (Result, error) {
				cfg := DefaultAblationConfig()
				cfg.Seed = seed
				rows, err := Ablations(cfg)
				if err != nil {
					return Result{}, err
				}
				res := Result{Output: FormatAblations(rows)}
				for _, r := range rows {
					res.Events += r.Events
				}
				return res, nil
			},
		},
		{
			Name:  "multibottleneck",
			Title: "Multi-bottleneck — max-min feedback and bottleneck shift (§5.2)",
			Run: func(seed int64) (Result, error) {
				cfg := DefaultMultiBottleneckConfig()
				cfg.Seed = seed
				res, err := MultiBottleneck(cfg)
				if err != nil {
					return Result{}, err
				}
				return Result{
					Output: FormatMultiBottleneck(res),
					Events: res.Events,
					Obs:    res.Obs,
					Artifacts: []Artifact{{
						Name:   "multibottleneck.csv",
						Series: []*stats.TimeSeries{res.Rate, res.BottleneckID},
					}},
				}, nil
			},
		},
		{
			Name:  "utilization",
			Title: "Useful link utilization — PELS vs best-effort (§1)",
			Run: func(seed int64) (Result, error) {
				cfg := DefaultUtilizationConfig()
				cfg.Seed = seed
				rows, err := Utilization(cfg)
				if err != nil {
					return Result{}, err
				}
				res := Result{Output: FormatUtilization(rows)}
				for _, r := range rows {
					res.Events += r.Events
				}
				return res, nil
			},
		},
		{
			Name:  "isolation",
			Title: "WRR isolation — PELS and Internet queues do not affect each other (§6.1)",
			Run: func(seed int64) (Result, error) {
				cfg := DefaultIsolationConfig()
				cfg.Seed = seed
				res, err := Isolation(cfg)
				if err != nil {
					return Result{}, err
				}
				return Result{Output: FormatIsolation(res), Events: res.Events}, nil
			},
		},
		{
			Name:  "controllers",
			Title: "Congestion-control independence — PELS under every controller (§5)",
			Run: func(seed int64) (Result, error) {
				cfg := DefaultControllersConfig()
				cfg.Seed = seed
				rows, err := Controllers(cfg)
				if err != nil {
					return Result{}, err
				}
				res := Result{Output: FormatControllers(rows)}
				for _, r := range rows {
					res.Events += r.Events
				}
				return res, nil
			},
		},
		{
			Name:  "rttfairness",
			Title: "RTT fairness — MKC does not penalize long-RTT flows (Lemma 6)",
			Run: func(seed int64) (Result, error) {
				cfg := DefaultRTTFairnessConfig()
				cfg.Seed = seed
				res, err := RTTFairness(cfg)
				if err != nil {
					return Result{}, err
				}
				return Result{Output: FormatRTTFairness(res), Events: res.Events}, nil
			},
		},
		{
			Name:  "mixed",
			Title: "Mixed controller population — MKC vs AIMD on shared PELS queues",
			Run: func(seed int64) (Result, error) {
				cfg := DefaultMixedPopulationConfig()
				cfg.Seed = seed
				res, err := MixedPopulation(cfg)
				if err != nil {
					return Result{}, err
				}
				return Result{Output: FormatMixedPopulation(res), Events: res.Events}, nil
			},
		},
		{
			Name:  "wire-loopback",
			Title: "Wire loopback — live UDP stack over the in-process emulator",
			Run: func(seed int64) (Result, error) {
				cfg := DefaultWireLoopbackConfig()
				cfg.Seed = seed
				res, err := WireLoopback(cfg)
				if err != nil {
					return Result{}, err
				}
				return wireLoopbackResult(res), nil
			},
		},
		{
			Name:  "chaos-testbed",
			Title: "Chaos testbed — fault schedule plus gateway swap, deterministic (§ robustness)",
			Run: func(seed int64) (Result, error) {
				cfg := DefaultChaosTestbedConfig()
				cfg.Seed = seed
				res, err := ChaosTestbed(cfg)
				if err != nil {
					return Result{}, err
				}
				return Result{
					Output:  FormatChaosTestbed(res),
					Events:  res.Events,
					Metrics: res.Metrics(),
					Obs:     res.Obs,
				}, nil
			},
		},
		{
			Name:  "chaos-wire",
			Title: "Chaos wire — live stack under faults with a mid-stream gateway swap",
			Run: func(seed int64) (Result, error) {
				cfg := DefaultChaosWireConfig()
				cfg.Seed = seed
				res, err := ChaosWire(cfg)
				if err != nil {
					return Result{}, err
				}
				return Result{
					Output:  FormatChaosWire(res),
					Events:  res.Datagrams(),
					Metrics: res.Metrics(),
					Obs:     res.Obs,
				}, nil
			},
		},
		{
			Name:  "overload-wire",
			Title: "Overload wire — flash crowd, hello storm, layer shedding and reconnect",
			Run: func(seed int64) (Result, error) {
				cfg := DefaultOverloadWireConfig()
				cfg.Seed = seed
				res, err := OverloadWire(cfg)
				if err != nil {
					return Result{}, err
				}
				return overloadWireResult(res), nil
			},
		},
		{
			Name:  "nlayer-testbed",
			Title: "N-layer ladder — 8 strict-priority layers with gamma split points",
			Run: func(seed int64) (Result, error) {
				cfg := DefaultNLayerConfig()
				cfg.Seed = seed
				res, err := NLayer(cfg)
				if err != nil {
					return Result{}, err
				}
				return Result{
					Output:  FormatNLayer(res),
					Events:  res.Events,
					Metrics: res.Metrics(),
					Obs:     res.Obs,
					Artifacts: []Artifact{{
						Name:   "nlayer_occupancy.csv",
						Series: res.Occupancy,
					}},
				}, nil
			},
		},
		{
			Name:  "rdscaling",
			Title: "R-D-aware rate scaling — the §6.5 smoothing extension",
			Run: func(seed int64) (Result, error) {
				cfg := DefaultRDScalingConfig()
				cfg.Seed = seed
				res, err := RDScaling(cfg)
				if err != nil {
					return Result{}, err
				}
				return Result{Output: FormatRDScaling(res), Events: res.Events}, nil
			},
		},
	}
}

// Names returns the registry names in canonical order.
func Names() []string {
	reg := Registry()
	names := make([]string, len(reg))
	for i, e := range reg {
		names[i] = e.Name
	}
	return names
}

// Lookup returns the entry registered under name.
func Lookup(name string) (Entry, bool) {
	for _, e := range Registry() {
		if e.Name == name {
			return e, true
		}
	}
	return Entry{}, false
}

// wireLoopbackResult is the wire-loopback entry's Result for one run.
func wireLoopbackResult(res WireLoopbackResult) Result {
	return Result{
		Output:  FormatWireLoopback(res),
		Events:  res.Datagrams(),
		Metrics: res.Metrics(),
		Obs:     res.Obs,
	}
}

// overloadWireResult is the overload-wire entry's Result for one run.
func overloadWireResult(res OverloadWireResult) Result {
	return Result{
		Output:  FormatOverloadWire(res),
		Events:  res.Datagrams(),
		Metrics: res.Metrics(),
		Obs:     res.Obs,
	}
}

// psnrSeries converts a Figure10Run's per-frame PSNR arrays into series
// indexed by frame number (stored in the time column as frame count).
func psnrSeries(r Figure10Run) []*stats.TimeSeries {
	base := stats.NewTimeSeries("base_psnr")
	be := stats.NewTimeSeries("besteffort_psnr")
	pels := stats.NewTimeSeries("pels_psnr")
	for i := range r.BasePSNR {
		base.Add(time.Duration(i)*time.Second, r.BasePSNR[i])
	}
	for i := range r.BEPSNR {
		be.Add(time.Duration(i)*time.Second, r.BEPSNR[i])
	}
	for i := range r.PELSPSNR {
		pels.Add(time.Duration(i)*time.Second, r.PELSPSNR[i])
	}
	return []*stats.TimeSeries{base, be, pels}
}
